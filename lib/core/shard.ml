module Component = Mx_connect.Component
module Conn_arch = Mx_connect.Conn_arch
module Cluster = Mx_connect.Cluster
module Assign = Mx_connect.Assign
module Ev = Mx_util.Event_log
module Metrics = Mx_util.Metrics

(* Saturating arithmetic: design spaces are cartesian products and
   overflow a 63-bit int long before they overflow the planner. *)
let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

let sat_add a b = if a > max_int - b then max_int else a + b
let space_of counts = List.fold_left sat_mul 1 counts

type descriptor = {
  workload_fp : string;
  arch_label : string;
  arch_fp : string;
  level : int;
  prefix : string list;
  space : int;
  cap : int;
}

let fingerprint d =
  Printf.sprintf "shard:%s|%s|L%d|p=%s|n=%d/%d" d.workload_fp d.arch_fp
    d.level
    (String.concat "," d.prefix)
    d.space d.cap

(* -- wire format -------------------------------------------------------------

   One shard per line, tab-separated:

     shard <TAB> 1 <TAB> workload_fp <TAB> arch_label <TAB> arch_fp
           <TAB> level <TAB> prefix(comma-joined) <TAB> space <TAB> cap

   Fingerprints and component names never contain tabs; the format is
   what an external worker process would consume, so [of_line]
   validates everything it can without the architecture context
   (fingerprint agreement is [resolve]'s job). *)

let magic = "shard"
let version = "1"

let to_line d =
  String.concat "\t"
    [
      magic;
      version;
      d.workload_fp;
      d.arch_label;
      d.arch_fp;
      string_of_int d.level;
      String.concat "," d.prefix;
      string_of_int d.space;
      string_of_int d.cap;
    ]

let of_line line =
  match String.split_on_char '\t' line with
  | [ m; v; workload_fp; arch_label; arch_fp; level; prefix; space; cap ] ->
    if m <> magic then Error (Printf.sprintf "bad magic %S" m)
    else if v <> version then Error (Printf.sprintf "unsupported version %S" v)
    else if workload_fp = "" || arch_fp = "" then
      Error "empty fingerprint field"
    else (
      match
        (int_of_string_opt level, int_of_string_opt space, int_of_string_opt cap)
      with
      | Some level, Some space, Some cap
        when level >= 0 && space >= 0 && cap >= 0 ->
        let prefix =
          if prefix = "" then [] else String.split_on_char ',' prefix
        in
        Ok { workload_fp; arch_label; arch_fp; level; prefix; space; cap }
      | _ -> Error "malformed level/space/cap field")
  | fields ->
    Error (Printf.sprintf "expected 9 tab-separated fields, got %d"
             (List.length fields))

let save ~path descs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun d ->
          output_string oc (to_line d);
          output_char oc '\n')
        descs)

let load ~path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go n acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | "" -> go (n + 1) acc
          | line -> (
            match of_line line with
            | Ok d -> go (n + 1) (d :: acc)
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e))
        in
        go 1 [])

(* -- planning ----------------------------------------------------------------

   A resolved shard carries, besides its portable descriptor, the live
   pointers its enumeration needs: every cluster of the level with its
   component choices, a prefix cluster with just its bound component.
   Its assignments are the choice vectors in odometer order (the last
   cluster turning fastest), capped at [cap]; concatenating one level's
   shards in plan order yields exactly the designs (and the order) of
   the monolithic [Assign.enumerate] over that level with the same cap
   — that identity is what makes the final front byte-stable in the
   shard count. *)

type resolved = {
  desc : descriptor;
  clusters : (Cluster.t * Component.t array) array;
}

let of_bound desc bound rest =
  {
    desc;
    clusters =
      Array.of_list
        (List.map (fun (cl, c) -> (cl, [| c |])) bound
        @ List.map (fun (cl, cs) -> (cl, Array.of_list cs)) rest);
  }

let descriptor r = r.desc

type pending = {
  bound_rev : (Cluster.t * Component.t) list;
  prest : (Cluster.t * Component.t list) list;
  pspace : int;
}

let rest_space rest = space_of (List.map (fun (_, cs) -> List.length cs) rest)

(* Split one shard at its first multi-choice cluster (descending
   through forced single-choice clusters), one child per choice, in
   choice order — so children concatenate back to the parent. *)
let expand p =
  let rec go bound_rev = function
    | [] -> assert false (* pspace >= 2 implies a multi-choice cluster *)
    | (cl, [ c ]) :: rest -> go ((cl, c) :: bound_rev) rest
    | (cl, cs) :: rest ->
      let child_space = rest_space rest in
      List.map
        (fun c ->
          { bound_rev = (cl, c) :: bound_rev; prest = rest;
            pspace = child_space })
        cs
  in
  go p.bound_rev p.prest

(* Breadth-first split of one level into at least [target] shards when
   the space allows it: repeatedly expand the shard with the largest
   projected size (earliest in plan order on ties), children replacing
   their parent in place. *)
let split ~target per_cluster =
  let shards =
    ref [ { bound_rev = []; prest = per_cluster; pspace = rest_space per_cluster } ]
  in
  let progress = ref true in
  while List.length !shards < target && !progress do
    let best = ref None in
    List.iteri
      (fun i s ->
        if s.pspace >= 2 then
          match !best with
          | Some (_, bs) when bs.pspace >= s.pspace -> ()
          | _ -> best := Some (i, s))
      !shards;
    match !best with
    | None -> progress := false
    | Some (i, s) ->
      shards :=
        List.concat
          (List.mapi (fun j x -> if j = i then expand s else [ x ]) !shards)
  done;
  !shards

let plan ?(shards = 1) ?(max_designs_per_level = max_int) ~workload_fp
    ~arch_label ~arch_fp ~onchip ~offchip levels =
  if shards < 1 then invalid_arg "Shard.plan: shards < 1";
  if max_designs_per_level < 0 then
    invalid_arg "Shard.plan: max_designs_per_level < 0";
  Metrics.incr Metrics.global ~by:(List.length levels) "assign.levels";
  let out = ref [] in
  List.iteri
    (fun li level ->
      let per_cluster =
        List.map (fun cl -> (cl, Assign.choices ~onchip ~offchip cl)) level
      in
      if List.exists (fun (_, cs) -> cs = []) per_cluster then begin
        (* same accounting as the monolithic [Assign.enumerate] *)
        Metrics.incr Metrics.global "assign.infeasible_levels";
        if Ev.is_on Ev.global then
          Ev.emit Ev.global ~stage:"assign" "assign.level_infeasible"
            [
              ("clusters", Ev.Int (List.length level));
              ("reason", Ev.Str "no_feasible_component");
            ]
      end
      else begin
        let space = rest_space per_cluster in
        let enumerated = min space max_designs_per_level in
        if Metrics.is_on Metrics.global then begin
          Metrics.incr Metrics.global ~by:enumerated "assign.enumerated";
          Metrics.incr Metrics.global
            ~by:(max 0 (space - enumerated))
            "assign.cap_pruned"
        end;
        if Ev.is_on Ev.global then
          Ev.emit Ev.global ~stage:"assign" "assign.level"
            [
              ("clusters", Ev.Int (List.length level));
              ("enumerated", Ev.Int enumerated);
              ("cap_pruned", Ev.Int (max 0 (space - enumerated)));
            ];
        let pendings = split ~target:shards per_cluster in
        (* The level cap flows through the shards in plan order: each
           one may emit exactly the designs the monolithic enumeration
           would take from its slice of the product, so no shard
           computes a design the merge would discard. *)
        let consumed = ref 0 in
        List.iter
          (fun p ->
            let budget = max 0 (max_designs_per_level - !consumed) in
            let cap = min p.pspace budget in
            consumed := sat_add !consumed cap;
            if cap > 0 then begin
              let bound = List.rev p.bound_rev in
              let desc =
                {
                  workload_fp;
                  arch_label;
                  arch_fp;
                  level = li;
                  prefix = List.map (fun (_, c) -> c.Component.name) bound;
                  space = p.pspace;
                  cap;
                }
              in
              out := of_bound desc bound p.prest :: !out
            end)
          pendings
      end)
    levels;
  let planned = List.rev !out in
  Metrics.incr Metrics.global ~by:(List.length planned) "shard.planned";
  if Ev.is_on Ev.global then
    List.iter
      (fun r ->
        Ev.emit Ev.global ~stage:"shard" "shard.planned"
          [
            ("shard", Ev.Str (fingerprint r.desc));
            ("arch", Ev.Str r.desc.arch_label);
            ("level", Ev.Int r.desc.level);
            ("prefix", Ev.Str (String.concat "," r.desc.prefix));
            ("space", Ev.Int r.desc.space);
            ("cap", Ev.Int r.desc.cap);
          ])
      planned;
  planned

let clusters r = r.clusters

(* Silent: no events, no metrics — shards run on pool workers, where
   emission would be schedule-dependent.  All bookkeeping happens at
   plan time and at ordered commit time. *)
let iter r f =
  let v = Array.make (Array.length r.clusters) 0 in
  for i = 0 to r.desc.cap - 1 do
    f i v;
    (* advance the odometer; [cap] never exceeds the space, so it only
       wraps after the last assignment *)
    let j = ref (Array.length v - 1) and carry = ref true in
    while !carry && !j >= 0 do
      v.(!j) <- v.(!j) + 1;
      if v.(!j) < Array.length (snd r.clusters.(!j)) then carry := false
      else begin
        v.(!j) <- 0;
        decr j
      end
    done
  done

let vector r i =
  let v = Array.make (Array.length r.clusters) 0 and i = ref i in
  for j = Array.length v - 1 downto 0 do
    let n = Array.length (snd r.clusters.(j)) in
    v.(j) <- !i mod n;
    i := !i / n
  done;
  v

let connectivity r v =
  Conn_arch.make
    (Array.to_list (Array.mapi (fun j (cl, cs) -> (cl, cs.(v.(j)))) r.clusters))

let enumerate r =
  let out = ref [] in
  iter r (fun _ v -> out := connectivity r v :: !out);
  List.rev !out

let resolve ~workload_fp ~arch_label ~arch_fp ~onchip ~offchip ~levels desc =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if desc.workload_fp <> workload_fp then
    err "workload fingerprint mismatch: shard has %s" desc.workload_fp
  else if desc.arch_fp <> arch_fp then
    err "architecture fingerprint mismatch: shard has %s" desc.arch_fp
  else if desc.arch_label <> arch_label then
    err "architecture label mismatch: shard has %s" desc.arch_label
  else
    match List.nth_opt levels desc.level with
    | None -> err "level %d out of range (%d levels)" desc.level
                (List.length levels)
    | Some level ->
      let per_cluster =
        List.map (fun cl -> (cl, Assign.choices ~onchip ~offchip cl)) level
      in
      let rec bind acc prefix per_cluster =
        match (prefix, per_cluster) with
        | [], rest -> Ok (List.rev acc, rest)
        | name :: ps, (cl, cs) :: rest -> (
          match
            List.find_opt (fun c -> c.Component.name = name) cs
          with
          | Some c -> bind ((cl, c) :: acc) ps rest
          | None -> err "prefix component %s infeasible for its cluster" name)
        | _ :: _, [] -> err "prefix longer than the level's cluster list"
      in
      Result.bind (bind [] desc.prefix per_cluster) (fun (bound, rest) ->
          let space = rest_space rest in
          if space <> desc.space then
            err "space mismatch: descriptor says %d, level yields %d"
              desc.space space
          else Ok (of_bound desc bound rest))
