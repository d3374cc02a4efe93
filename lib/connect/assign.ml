module Metrics = Mx_util.Metrics
module Event_log = Mx_util.Event_log

let choices ~onchip ~offchip (cl : Cluster.t) =
  let pool = if cl.Cluster.offchip then offchip else onchip in
  List.filter (Conn_arch.feasible cl) pool

(* Saturating product of the per-cluster choice counts: the size the
   cartesian enumeration would have without a cap. *)
let space per_cluster =
  List.fold_left
    (fun acc (_, cs) ->
      let n = List.length cs in
      if n = 0 then 0
      else if acc > max_int / max 1 n then max_int
      else acc * n)
    1 per_cluster

let level ?(max_designs = max_int) ~onchip ~offchip clusters =
  let per_cluster = List.map (fun cl -> (cl, choices ~onchip ~offchip cl)) clusters in
  if List.exists (fun (_, cs) -> cs = []) per_cluster then begin
    Metrics.incr Metrics.global "assign.infeasible_levels";
    if Event_log.is_on Event_log.global then
      Event_log.emit Event_log.global ~stage:"assign" "assign.level_infeasible"
        [
          ("clusters", Event_log.Int (List.length clusters));
          ("reason", Event_log.Str "no_feasible_component");
        ];
    None
  end
  else begin
    let space = space per_cluster in
    let enumerated = max 0 (min space max_designs) in
    if Metrics.is_on Metrics.global then begin
      Metrics.incr Metrics.global ~by:enumerated "assign.enumerated";
      Metrics.incr Metrics.global ~by:(space - enumerated) "assign.cap_pruned"
    end;
    if Event_log.is_on Event_log.global then
      Event_log.emit Event_log.global ~stage:"assign" "assign.level"
        [
          ("clusters", Event_log.Int (List.length clusters));
          ("enumerated", Event_log.Int enumerated);
          ("cap_pruned", Event_log.Int (space - enumerated));
        ];
    Some per_cluster
  end

let enumerate ?(max_designs = max_int) ~onchip ~offchip clusters =
  match level ~max_designs ~onchip ~offchip clusters with
  | None -> []
  | Some per_cluster ->
    let out = ref [] and count = ref 0 in
    let rec go acc = function
      | [] ->
        if !count < max_designs then begin
          out := Conn_arch.make (List.rev acc) :: !out;
          incr count
        end
      | (cl, cs) :: rest ->
        List.iter (fun c -> if !count < max_designs then go ((cl, c) :: acc) rest) cs
    in
    go [] per_cluster;
    List.rev !out

let enumerate_levels ?(order = Cluster.Lowest_bandwidth_first)
    ?(max_designs_per_level = max_int) ~onchip ~offchip channels =
  let levels = Cluster.levels_ordered order channels in
  Metrics.incr Metrics.global ~by:(List.length levels) "assign.levels";
  let kept =
    List.concat_map
      (enumerate ~max_designs:max_designs_per_level ~onchip ~offchip)
      levels
  in
  if Event_log.is_on Event_log.global then
    List.iter
      (fun arch ->
        Event_log.emit Event_log.global ~stage:"assign" "assign.kept"
          [ ("conn", Event_log.Str (Conn_arch.describe arch)) ])
      kept;
  Metrics.incr Metrics.global ~by:(List.length kept) "assign.kept";
  kept

let count_levels channels = List.length (Cluster.levels channels)
