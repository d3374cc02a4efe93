module Component = Mx_connect.Component
module Conn_arch = Mx_connect.Conn_arch
module Cluster = Mx_connect.Cluster
module Assign = Mx_connect.Assign
module Ev = Mx_util.Event_log
module Metrics = Mx_util.Metrics

(* A shard carries the live pointers its enumeration needs: every
   cluster of the level with its component choices, a prefix cluster
   with just its bound component.  Its assignments are the choice
   vectors in odometer order (the last cluster turning fastest), capped
   at [cap]; concatenating one level's shards in plan order yields
   exactly the designs (and the order) of the monolithic
   [Assign.enumerate] over that level with the same cap — that identity
   is what makes the final front byte-stable in the shard count. *)

type t = {
  fingerprint : string;
  cap : int;
  clusters : (Cluster.t * Component.t array) array;
}

let fingerprint t = t.fingerprint
let cap t = t.cap
let clusters t = t.clusters

type pending = {
  bound_rev : (Cluster.t * Component.t) list;
  prest : (Cluster.t * Component.t list) list;
  pspace : int;
}

(* Split one shard at its first multi-choice cluster (descending
   through forced single-choice clusters), one child per choice, in
   choice order — so children concatenate back to the parent. *)
let expand p =
  let rec go bound_rev = function
    | [] -> assert false (* pspace >= 2 implies a multi-choice cluster *)
    | (cl, [ c ]) :: rest -> go ((cl, c) :: bound_rev) rest
    | (cl, cs) :: rest ->
      let child_space = Assign.space rest in
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
    ref [ { bound_rev = []; prest = per_cluster; pspace = Assign.space per_cluster } ]
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
      match
        Assign.level ~max_designs:max_designs_per_level ~onchip ~offchip level
      with
      | None -> ()
      | Some per_cluster ->
        (* The level cap flows through the shards in plan order: each
           one may emit exactly the designs the monolithic enumeration
           would take from its slice of the product, so no shard
           computes a design the merge would discard. *)
        let consumed = ref 0 in
        List.iter
          (fun p ->
            let cap = min p.pspace (max_designs_per_level - !consumed) in
            consumed := !consumed + cap;
            if cap > 0 then begin
              let bound = List.rev p.bound_rev in
              let prefix =
                String.concat ","
                  (List.map (fun (_, c) -> c.Component.name) bound)
              in
              let clusters =
                Array.of_list
                  (List.map (fun (cl, c) -> (cl, [| c |])) bound
                  @ List.map (fun (cl, cs) -> (cl, Array.of_list cs)) p.prest)
              in
              let fingerprint =
                Printf.sprintf "shard:%s|%s|L%d|p=%s|n=%d/%d" workload_fp
                  arch_fp li prefix p.pspace cap
              in
              out :=
                ({ fingerprint; cap; clusters }, li, prefix, p.pspace) :: !out
            end)
          (split ~target:shards per_cluster))
    levels;
  let planned = List.rev !out in
  Metrics.incr Metrics.global ~by:(List.length planned) "shard.planned";
  if Ev.is_on Ev.global then
    List.iter
      (fun (t, level, prefix, space) ->
        Ev.emit Ev.global ~stage:"shard" "shard.planned"
          [
            ("shard", Ev.Str t.fingerprint);
            ("arch", Ev.Str arch_label);
            ("level", Ev.Int level);
            ("prefix", Ev.Str prefix);
            ("space", Ev.Int space);
            ("cap", Ev.Int t.cap);
          ])
      planned;
  List.map (fun (t, _, _, _) -> t) planned

(* Silent: no events, no metrics — shards run on pool workers, where
   emission would be schedule-dependent.  All bookkeeping happens at
   plan time and at ordered commit time. *)
let iter t f =
  let v = Array.make (Array.length t.clusters) 0 in
  for i = 0 to t.cap - 1 do
    f i v;
    (* advance the odometer; [cap] never exceeds the space, so it only
       wraps after the last assignment *)
    let j = ref (Array.length v - 1) and carry = ref true in
    while !carry && !j >= 0 do
      v.(!j) <- v.(!j) + 1;
      if v.(!j) < Array.length (snd t.clusters.(!j)) then carry := false
      else begin
        v.(!j) <- 0;
        decr j
      end
    done
  done

let vector t i =
  let v = Array.make (Array.length t.clusters) 0 and i = ref i in
  for j = Array.length v - 1 downto 0 do
    let n = Array.length (snd t.clusters.(j)) in
    v.(j) <- !i mod n;
    i := !i / n
  done;
  v

let connectivity t v =
  Conn_arch.make
    (Array.to_list (Array.mapi (fun j (cl, cs) -> (cl, cs.(v.(j)))) t.clusters))

let enumerate t =
  let out = ref [] in
  iter t (fun _ v -> out := connectivity t v :: !out);
  List.rev !out
