(** The unified evaluation engine: one entry point for every
    performance/energy evaluation in the exploration funnel, with a
    content-addressed result cache behind it.

    The funnel's three evaluators become one {!fidelity} ladder:

    {v
      Estimate          analytic model from a module-level profile
        |                 (Phase I fan-out; cheapest, least accurate)
      Sampled (on,off)  time-sampled cycle simulation
        |                 (Phase II; Kessler windows)
      Exact             full trace-driven cycle simulation
                          (refinement / final reporting; ground truth)
    v}

    Every call is routed through a process-wide {!Mx_util.Memo_cache}
    keyed by canonical structural fingerprints:

    [workload fingerprint | memory fingerprint | connectivity
    fingerprint | fidelity tag]

    so a design already evaluated at {e equal or higher} fidelity is
    never recomputed: an [Exact] result satisfies a later [Sampled]
    request for the same design (both are produced by the cycle
    simulator; the exact run is strictly better).  [Estimate] results
    are kept separate in both directions — the analytic model is a
    different estimator, and silently substituting simulator output
    would change what the caller asked for (and vice versa).
    [Sampled] entries only satisfy requests with identical windows.

    The cache is single-flight (see {!Mx_util.Memo_cache}): concurrent
    evaluations of the same key across {!Mx_util.Task_pool} domains
    compute once, so per-simulation counters such as [cycle_sim.runs]
    remain identical at every jobs level.  Cache traffic is recorded in
    {!Mx_util.Metrics.global} as [eval.cache.hits], [eval.cache.misses]
    and [eval.cache.evictions].

    {b Recorded columns and estimator plans.}  A simulation that has to
    be computed times its connectivity ({!Cycle_sim.time}) over the
    architecture's recorded module outcomes ({!Cycle_sim.record}); an
    estimate that has to be computed runs its connectivity
    ({!Estimator.run}) over the architecture's plan
    ({!Estimator.prepare}).  Columns and plans sit in a second, small
    single-flight memo keyed
    [workload fingerprint | memory fingerprint | fidelity tag], so all
    connectivity variants of one architecture at one fidelity share a
    single module-level simulation, or a single plan.  The plan, like
    the result key, takes the profile to be determined by the workload
    and the architecture.  The memo holds at most 16 entries (the
    refine pass interleaves the architectures on the front), is never
    persisted, and counts its traffic as [eval.cache.columns.hits],
    [.misses] and [.evictions] — a [cache.] segment, so exempt from
    the determinism contract.  [cycle_sim.*] counters are still
    recorded once per computed simulation. *)

type fidelity =
  | Estimate
      (** the analytic model ({!Estimator.run} over the architecture's
          shared {!Estimator.prepare} plan); requires [~profile] *)
  | Sampled of int * int
      (** time-sampled cycle simulation with [(on, off)] windows *)
  | Exact  (** cycle simulation of the full trace *)

val fidelity_tag : fidelity -> string
(** Canonical short form used in cache keys (stable across runs). *)

val eval :
  fidelity:fidelity ->
  workload:Mx_trace.Workload.t ->
  arch:Mx_mem.Mem_arch.t ->
  ?profile:Mx_mem.Mem_sim.stats ->
  conn:Mx_connect.Conn_arch.t ->
  unit ->
  Sim_result.t
(** Evaluate one (workload, memory, connectivity) design point at the
    requested fidelity, serving it from the cache when an entry of equal
    or higher fidelity exists.  Every fidelity takes the same path: a
    [Sampled] request first tries Exact-serves-Sampled promotion (hot
    tier, then disk tier); then one lookup under the request's own key
    goes hot tier, disk tier, compute.
    @raise Invalid_argument when [fidelity = Estimate] and no [~profile]
    is supplied, or when [fidelity = Sampled (on, off)] has [on <= 0]
    or [off < 0] (both checked before any lookup, so a cached or
    promotable entry does not hide the mistake), or whenever the
    underlying evaluator rejects the design (unroutable channel, empty
    profile). *)

type provenance =
  | Computed  (** this call ran the evaluator *)
  | Cache_hit  (** served from the hot tier (incl. single-flight waits) *)
  | Disk_hit
      (** served from the persistent tier (see {!open_persist}) and
          promoted into the hot tier *)
  | Promoted
      (** a [Sampled] request served by an [Exact] result, resident in
          either tier *)

val provenance_tag : provenance -> string
(** ["computed"], ["hit"], ["hit_disk"] or ["promoted"] — the stable
    form used in [eval.cache.provenance] events. *)

val eval_prov :
  fidelity:fidelity ->
  workload:Mx_trace.Workload.t ->
  arch:Mx_mem.Mem_arch.t ->
  ?profile:Mx_mem.Mem_sim.stats ->
  conn:Mx_connect.Conn_arch.t ->
  unit ->
  Sim_result.t * provenance
(** {!eval} that also reports where the result came from.  Provenance is
    schedule-dependent (cache contents depend on cross-domain timing),
    so events derived from it must carry a [cache.] segment in their
    name — see {!Mx_util.Metrics.schedule_dependent}. *)

val default_cache_capacity : int
(** 65536 entries — far above the working set of any bundled experiment,
    so nothing is evicted and cache behaviour stays deterministic. *)

val set_cache_capacity : int -> unit
(** Replace the cache with a fresh one of the given capacity (dropping
    all entries; 0 or negative disables caching), and the memo of
    columns and plans with a fresh one (disabled too when the capacity
    is 0 or negative).  Not safe to call concurrently with running
    evaluations — configure before exploring. *)

val cache_stats : unit -> Mx_util.Memo_cache.stats
(** Hit/miss/eviction totals since the cache was created or last
    resized ({!clear_cache} keeps counters). *)

val column_stats : unit -> Mx_util.Memo_cache.stats
(** The same totals for the memo of columns and plans: each miss is
    one {!Cycle_sim.record} or one {!Estimator.prepare}. *)

val clear_cache : unit -> unit
(** Drop every cached result, recorded column and estimator plan
    (counters are kept).  Call between independent experiment arms when warm-cache
    carry-over would blur a comparison.  Only empties the hot tier —
    the persistent tier, when open, is untouched (that is what makes
    warm-start tests honest). *)

(** {2 The persistent tier}

    An optional second cache level backed by {!Mx_util.Persist_cache}:
    hot tier → disk tier → compute, with the single-flight guarantee
    covering all three (the disk probe and the write-back happen inside
    the memo slot, so concurrent requests for one key do one disk read
    and at most one evaluation).  Results are stored in the bit-exact
    {!Sim_result.to_wire} form; an entry that fails {!Sim_result.of_wire}
    reads as a miss.  Disk traffic is counted under
    [eval.cache.disk.{hits,misses,writes}] — a [cache.] segment, exempt
    from the determinism contract like the hot tier's counters. *)

val model_revision : string
(** Version stamp written into every segment the disk tier creates.
    Bumped whenever the estimator, the cycle simulator or the
    fingerprint scheme changes in a result-affecting way; stores written
    under another revision are ignored wholesale on open. *)

val open_persist : dir:string -> (unit, string) result
(** Attach the process-wide disk tier rooted at [dir] (creating it if
    needed), closing any previously attached store first.  [Error]
    reports an unusable directory; a corrupt store is not an error —
    torn or damaged records are skipped on open.  Not safe to call
    concurrently with running evaluations. *)

val close_persist : unit -> unit
(** Flush, [fsync] and detach the disk tier (no-op when none is open).
    Evaluation falls back to two-tier-less operation. *)

val persist_stats : unit -> Mx_util.Persist_cache.stats option
(** Counters of the attached store; [None] when no store is open. *)
