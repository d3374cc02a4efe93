module Workload = Mx_trace.Workload
module Trace = Mx_trace.Trace
module Mem_arch = Mx_mem.Mem_arch
module Conn_arch = Mx_connect.Conn_arch
module Memo_cache = Mx_util.Memo_cache
module Persist_cache = Mx_util.Persist_cache

type fidelity = Sampled of int * int | Exact

let fidelity_tag = function
  | Sampled (on, off) -> Printf.sprintf "s:%d/%d" on off
  | Exact -> "x"

let default_cache_capacity = 65536

let make_cache capacity =
  Memo_cache.create ~metrics_prefix:"eval.cache" ~capacity ()

let cache : Sim_result.t Memo_cache.t ref = ref (make_cache default_cache_capacity)

(* The recorded module outcomes of a simulation, one column per
   (workload, architecture, fidelity).  Phase II and Full visit an
   architecture's variants together, but the refine pass interleaves
   the few architectures on the front, so the memo keeps a handful
   beyond the largest APEX selection (APEX's [select] returns up to
   [max_selected + 1] architectures). *)
let column_capacity = 16

let make_columns capacity =
  Memo_cache.create ~metrics_prefix:"eval.cache.columns"
    ~capacity:(if capacity <= 0 then 0 else column_capacity)
    ()

let columns : Cycle_sim.column Memo_cache.t ref =
  ref (make_columns default_cache_capacity)

let set_cache_capacity capacity =
  cache := make_cache (max 0 capacity);
  columns := make_columns capacity

let cache_stats () = Memo_cache.stats !cache
let column_stats () = Memo_cache.stats !columns

let clear_cache () =
  Memo_cache.clear !cache;
  Memo_cache.clear !columns

(* Workload fingerprints are O(trace length); exploration evaluates the
   same workload thousands of times, so memoise the last one by physical
   identity (the length re-check guards against in-place Emitter
   appends).  A lock-free single slot is enough: racing domains all
   write the same value. *)
let wl_memo : (Workload.t * int * string) option Atomic.t = Atomic.make None

let workload_fingerprint (w : Workload.t) =
  let len = Trace.length w.Workload.trace in
  match Atomic.get wl_memo with
  | Some (w', len', fp) when w' == w && len' = len -> fp
  | _ ->
    let fp = Workload.fingerprint w in
    Atomic.set wl_memo (Some (w, len, fp));
    fp

let key ~base fidelity = base ^ "|" ^ fidelity_tag fidelity

(* The persistent (disk) tier, for simulations only.  Bump the revision
   whenever a change to the cycle simulator or the fingerprint scheme
   can alter any stored result: segments written under the old revision
   are then ignored on open, so a stale store silently self-invalidates
   instead of serving yesterday's numbers. *)
let model_revision = "conex-eval-1"

let persist : Persist_cache.t option ref = ref None

let close_persist () =
  match !persist with
  | None -> ()
  | Some t ->
    persist := None;
    Persist_cache.close t

let open_persist ~dir =
  close_persist ();
  match
    Persist_cache.open_dir ~metrics_prefix:"eval.cache.disk"
      ~revision:model_revision ~dir ()
  with
  | Ok t ->
    persist := Some t;
    Ok ()
  | Error e -> Error e

let persist_stats () = Option.map Persist_cache.stats !persist

let persist_get k =
  match !persist with
  | None -> None
  | Some t -> (
    match Persist_cache.get t ~key:k with
    | None -> None
    | Some wire -> Sim_result.of_wire wire (* unparseable entry = miss *))

let persist_put k r =
  match !persist with
  | None -> ()
  | Some t -> Persist_cache.put t ~key:k (Sim_result.to_wire r)

type provenance = Computed | Cache_hit | Disk_hit | Promoted

let provenance_tag = function
  | Computed -> "computed"
  | Cache_hit -> "hit"
  | Disk_hit -> "hit_disk"
  | Promoted -> "promoted"

(* hot tier -> disk tier -> compute, inside the memo closure so the
   single-flight guarantee covers the disk read and the write-back:
   concurrent requests for one key do one disk probe and at most one
   evaluation, and every waiter sees the same value. *)
let find_via_tiers c ~key:k f =
  let disk = ref false in
  let r, mem_hit =
    Memo_cache.find_or_compute_prov c ~key:k (fun () ->
        match persist_get k with
        | Some r ->
          disk := true;
          r
        | None ->
          let r = f () in
          persist_put k r;
          r)
  in
  let prov = if mem_hit then Cache_hit else if !disk then Disk_hit else Computed in
  (r, prov)

(* Exact-serves-Sampled promotion: an Exact result for the same design
   is strictly higher fidelity, so serve it instead of re-simulating
   with sampling.  Hot tier first, then the store; a disk hit is
   re-homed under its Exact key so later peeks promote from memory. *)
let promote c ~exact_key =
  match Memo_cache.peek c ~key:exact_key with
  | Some _ as hit -> hit
  | None ->
    Option.map
      (fun r ->
        fst (Memo_cache.find_or_compute_prov c ~key:exact_key (fun () -> r)))
      (persist_get exact_key)

(* How one connectivity of a batch stands after its lookups, before
   any timing: served (with the key whose entry served it), claimed
   with a disk record to publish, claimed to be timed, or left until
   the batch's own slots are filled (its key is an earlier entry of the
   batch, or another domain's). *)
type lookup =
  | Served of string * Sim_result.t * provenance
  | From_disk of Sim_result.t Memo_cache.slot * Sim_result.t
  | To_time of Sim_result.t Memo_cache.slot
  | Later

(* Each connectivity in order goes through the ladder a single request
   takes: [Sampled] tries promotion first, then one hot -> disk lookup
   under the request's key.  The connectivities left are timed in one
   pass over their architecture's recorded column, built on the first
   request at that fidelity.  The batch then visits the connectivities
   in order again, filling each claimed slot and refreshing each entry
   that served one, so the hot tier's recency order ends as a lone
   request after another would leave it.  It fills every slot it
   claimed before it waits on a key that another lookup holds, so two
   batches that each hold a key the other needs cannot wait on each
   other. *)
let eval_many ~fidelity ~workload ~arch conns =
  let sample =
    match fidelity with
    | Sampled (on, off) when on <= 0 || off < 0 ->
      invalid_arg "Eval.eval: bad sampling windows"
    | Sampled (on, off) -> Some (on, off)
    | Exact -> None
  in
  let arch_base =
    workload_fingerprint workload ^ "|" ^ Mem_arch.fingerprint arch
  in
  let column () =
    Memo_cache.find_or_compute !columns ~key:(key ~base:arch_base fidelity)
      (fun () -> Cycle_sim.record ?sample ~workload ~arch ())
  in
  let c = !cache in
  let batch conns =
    (* every slot the batch claims, abandoned if anything raises before
       the batch has filled them all *)
    let held = ref [] in
    let lookup conn =
      let base = arch_base ^ "|" ^ Conn_arch.fingerprint conn in
      let k = key ~base fidelity in
      let exact_key = key ~base Exact in
      let promoted =
        match fidelity with
        | Sampled _ -> promote c ~exact_key
        | Exact -> None
      in
      ( conn,
        k,
        match promoted with
        | Some r -> Served (exact_key, r, Promoted)
        | None when List.mem_assoc k !held -> Later
        | None -> (
          match Memo_cache.claim c ~key:k with
          | `Hit r -> Served (k, r, Cache_hit)
          | `Busy -> Later
          | `Claimed slot -> (
            held := (k, slot) :: !held;
            match persist_get k with
            | Some r -> From_disk (slot, r)
            | None -> To_time slot)) )
    in
    let fill_claimed () =
      let looked = List.map lookup conns in
      let timed =
        ref
          (match
             List.filter_map
               (function conn, _, To_time _ -> Some conn | _ -> None)
               looked
           with
          | [] -> []
          | to_time -> List.map fst (Cycle_sim.time_many (column ()) to_time))
      in
      List.map
        (fun (conn, k, l) ->
          ( conn,
            k,
            match l with
            | Served (used, r, prov) ->
              Memo_cache.refresh c ~key:used;
              Some (r, prov)
            | From_disk (slot, r) ->
              Memo_cache.fill c slot r;
              Some (r, Disk_hit)
            | To_time slot ->
              let r = List.hd !timed in
              timed := List.tl !timed;
              persist_put k r;
              Memo_cache.fill c slot r;
              Some (r, Computed)
            | Later ->
              Option.map (fun r -> (r, Cache_hit)) (Memo_cache.peek c ~key:k)
          ))
        looked
    in
    match fill_claimed () with
    | exception exn ->
      List.iter (fun (_, slot) -> Memo_cache.abandon c slot) !held;
      raise exn
    | filled ->
      List.map
        (function
          | _, _, Some served -> served
          | conn, k, None ->
            find_via_tiers c ~key:k (fun () ->
                Cycle_sim.time (column ()) ~conn))
        filled
  in
  (* A batch adds at most one hot-tier entry per connectivity.  When
     they might not all fit, a fill could evict an entry a later lookup
     of the batch would have missed: take the connectivities one at a
     time, as lone requests. *)
  if
    Memo_cache.enabled c
    && Memo_cache.capacity c - Memo_cache.length c < List.length conns
  then List.concat_map (fun conn -> batch [ conn ]) conns
  else batch conns

let eval_prov ~fidelity ~workload ~arch ~conn () =
  List.hd (eval_many ~fidelity ~workload ~arch [ conn ])

let eval ~fidelity ~workload ~arch ~conn () =
  fst (eval_prov ~fidelity ~workload ~arch ~conn ())
