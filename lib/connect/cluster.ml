type t = { channels : Channel.t list; bandwidth : float; offchip : bool }

let of_channel (c : Channel.t) =
  { channels = [ c ]; bandwidth = c.bandwidth; offchip = Channel.crosses_chip c }

let initial channels = List.map of_channel channels

let add_description b t =
  Buffer.add_char b '{';
  List.iteri
    (fun i ch ->
      if i > 0 then Buffer.add_string b ", ";
      Channel.add_endpoints b ch)
    t.channels;
  Buffer.add_char b '}'

let describe t =
  let b = Buffer.create 32 in
  add_description b t;
  Buffer.contents b

let merge a b =
  if a.offchip <> b.offchip then
    invalid_arg "Cluster.merge: cannot mix on-chip and off-chip channels";
  Mx_util.Metrics.incr Mx_util.Metrics.global "cluster.merges";
  let merged =
    {
      channels = a.channels @ b.channels;
      bandwidth = a.bandwidth +. b.bandwidth;
      offchip = a.offchip;
    }
  in
  (let log = Mx_util.Event_log.global in
   if Mx_util.Event_log.is_on log then
     Mx_util.Event_log.emit log ~stage:"cluster" "cluster.merge"
       [
         ("a", Mx_util.Event_log.Str (describe a));
         ("b", Mx_util.Event_log.Str (describe b));
         ("bandwidth", Mx_util.Event_log.Float merged.bandwidth);
         ("offchip", Mx_util.Event_log.Bool merged.offchip);
       ]);
  merged

type order =
  | Lowest_bandwidth_first
  | Highest_bandwidth_first
  | Random_order of int

let merge_step_ordered order clusters =
  (* candidate pair: the two lowest-bandwidth clusters within one
     boundary class; among the two classes pick the pair with the
     smaller combined bandwidth (the paper merges lowest-requirement
     channels first) *)
  let pair_of cls =
    match order with
    | Lowest_bandwidth_first | Highest_bandwidth_first -> (
      let cmp a b = Float.compare a.bandwidth b.bandwidth in
      let sorted =
        match order with
        | Highest_bandwidth_first -> List.stable_sort (fun a b -> cmp b a) cls
        | _ -> List.stable_sort cmp cls
      in
      match sorted with a :: b :: _ -> Some (a, b) | _ -> None)
    | Random_order seed -> (
      match cls with
      | _ :: _ :: _ ->
        (* a deterministic pseudo-random pair derived from the seed and
           the current cluster population *)
        let n = List.length cls in
        let g = Mx_util.Prng.create ~seed:(seed + (n * 7919)) in
        let i = Mx_util.Prng.int g ~bound:n in
        let j0 = Mx_util.Prng.int g ~bound:(n - 1) in
        let j = if j0 >= i then j0 + 1 else j0 in
        Some (List.nth cls i, List.nth cls j)
      | _ -> None)
  in
  let lowest_pair = pair_of in
  let onchip = List.filter (fun c -> not c.offchip) clusters
  and offchip = List.filter (fun c -> c.offchip) clusters in
  let pick =
    match (lowest_pair onchip, lowest_pair offchip) with
    | None, None -> None
    | Some p, None | None, Some p -> Some p
    | Some (a1, b1), Some (a2, b2) -> (
      match order with
      | Lowest_bandwidth_first ->
        if a1.bandwidth +. b1.bandwidth <= a2.bandwidth +. b2.bandwidth then
          Some (a1, b1)
        else Some (a2, b2)
      | Highest_bandwidth_first ->
        if a1.bandwidth +. b1.bandwidth >= a2.bandwidth +. b2.bandwidth then
          Some (a1, b1)
        else Some (a2, b2)
      | Random_order _ -> Some (a1, b1))
  in
  match pick with
  | None -> None
  | Some (a, b) ->
    let merged = merge a b in
    let rest = List.filter (fun c -> c != a && c != b) clusters in
    Some (merged :: rest)

let merge_step clusters = merge_step_ordered Lowest_bandwidth_first clusters

let levels_ordered order channels =
  let rec go level acc =
    match merge_step_ordered order level with
    | None -> List.rev (level :: acc)
    | Some next -> go next (level :: acc)
  in
  let ls = go (initial channels) [] in
  Mx_util.Metrics.observe Mx_util.Metrics.global ~unit_:"levels"
    "cluster.levels_per_brg"
    (float_of_int (List.length ls));
  ls

let levels channels = levels_ordered Lowest_bandwidth_first channels

let pp fmt t =
  Format.fprintf fmt "%s bw %.4f%s" (describe t) t.bandwidth
    (if t.offchip then " (off-chip)" else "")
