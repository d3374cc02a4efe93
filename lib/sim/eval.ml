module Workload = Mx_trace.Workload
module Trace = Mx_trace.Trace
module Mem_arch = Mx_mem.Mem_arch
module Conn_arch = Mx_connect.Conn_arch
module Memo_cache = Mx_util.Memo_cache
module Persist_cache = Mx_util.Persist_cache

type fidelity = Estimate | Sampled of int * int | Exact

let fidelity_tag = function
  | Estimate -> "e"
  | Sampled (on, off) -> Printf.sprintf "s:%d/%d" on off
  | Exact -> "x"

let default_cache_capacity = 65536

let make_cache capacity =
  Memo_cache.create ~metrics_prefix:"eval.cache" ~capacity ()

let cache : Sim_result.t Memo_cache.t ref = ref (make_cache default_cache_capacity)

(* What an architecture's connectivities share, one per (workload,
   architecture, fidelity): the recorded module outcomes of a
   simulation, or the estimator's plan.  Phase I, Phase II and Full
   visit an architecture's variants together, but the refine pass
   interleaves the few architectures on the front, so the memo keeps a
   handful beyond the largest APEX selection. *)
type prepared = Column of Cycle_sim.column | Plan of Estimator.plan

let column_capacity = 16

let make_columns capacity =
  Memo_cache.create ~metrics_prefix:"eval.cache.columns"
    ~capacity:(if capacity <= 0 then 0 else column_capacity)
    ()

let columns : prepared Memo_cache.t ref =
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

(* The persistent (disk) tier.  Bump the revision whenever a change to
   the estimator, the cycle simulator or the fingerprint scheme can
   alter any evaluation result: segments written under the old revision
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

(* One lookup for every rung of the ladder: the fidelity picks the key
   and the evaluator, and only [Sampled] tries promotion first.  The
   evaluator is chosen before any lookup, so a missing profile or bad
   sampling windows raise even when the key is cached.  A computed
   result runs the connectivity over what its architecture shares at
   that fidelity — a recorded column or an estimator plan — built on
   the first request.  The fidelity tag in the key decides which of the
   two an entry holds. *)
let eval_prov ~fidelity ~workload ~arch ?profile ~conn () =
  let arch_base =
    workload_fingerprint workload ^ "|" ^ Mem_arch.fingerprint arch
  in
  let shared build =
    Memo_cache.find_or_compute !columns ~key:(key ~base:arch_base fidelity)
      build
  in
  let simulate sample () =
    match
      shared (fun () -> Column (Cycle_sim.record ?sample ~workload ~arch ()))
    with
    | Column column -> Cycle_sim.time column ~conn
    | Plan _ -> assert false
  in
  let compute =
    match (fidelity, profile) with
    | Estimate, None ->
      invalid_arg "Eval.eval: Estimate fidelity requires ~profile"
    | Estimate, Some profile -> (
      fun () ->
        match
          shared (fun () -> Plan (Estimator.prepare ~workload ~arch ~profile))
        with
        | Plan plan -> Estimator.run plan ~conn
        | Column _ -> assert false)
    | Sampled (on, off), _ when on <= 0 || off < 0 ->
      invalid_arg "Eval.eval: bad sampling windows"
    | Sampled (on, off), _ -> simulate (Some (on, off))
    | Exact, _ -> simulate None
  in
  let c = !cache in
  let base = arch_base ^ "|" ^ Conn_arch.fingerprint conn in
  let promoted =
    match fidelity with
    | Sampled _ -> promote c ~exact_key:(key ~base Exact)
    | Estimate | Exact -> None
  in
  match promoted with
  | Some r -> (r, Promoted)
  | None -> find_via_tiers c ~key:(key ~base fidelity) compute

let eval ~fidelity ~workload ~arch ?profile ~conn () =
  fst (eval_prov ~fidelity ~workload ~arch ?profile ~conn ())
