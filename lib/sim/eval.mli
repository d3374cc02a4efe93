(** The unified evaluation engine: one entry point for the exploration
    funnel's simulations, with a content-addressed result cache behind
    them.

    The funnel's two simulated accuracy levels form one {!fidelity}
    ladder:

    {v
      Sampled (on,off)  time-sampled cycle simulation
        |                 (Phase II; Kessler windows)
      Exact             full trace-driven cycle simulation
                          (refinement / final reporting; ground truth)
    v}

    Phase I's analytic estimates are not on the ladder: they come from
    {!Estimator} ({!Estimator.estimate} for one connectivity; Phase I
    prepares one plan per architecture and assesses every assignment of
    a shard from that shard's {!Estimator.level}) and never enter
    either tier, because an estimate computed from its plan costs less
    than a hot-tier hit (on li at scale 100 000, 2-vCPU VM: 1.0–1.7 µs
    against 2.1 µs, and 5.7 µs for a disk hit).

    Every simulation is routed through a process-wide
    {!Mx_util.Memo_cache} keyed by canonical structural fingerprints:

    [workload fingerprint | memory fingerprint | connectivity
    fingerprint | fidelity tag]

    so a design already simulated at {e equal or higher} fidelity is
    never re-simulated: an [Exact] result satisfies a later [Sampled]
    request for the same design (both are produced by the cycle
    simulator; the exact run is strictly better).  [Sampled] entries
    only satisfy requests with identical windows.

    The cache is single-flight (see {!Mx_util.Memo_cache}): concurrent
    evaluations of the same key across {!Mx_util.Task_pool} domains
    compute once, so per-simulation counters such as [cycle_sim.runs]
    remain identical at every jobs level.  Cache traffic is recorded in
    {!Mx_util.Metrics.global} as [eval.cache.hits], [eval.cache.misses]
    and [eval.cache.evictions]; they count simulations only.

    {b Recorded columns.}  A simulation that has to be computed times
    its connectivity ({!Cycle_sim.time}) over the architecture's
    recorded module outcomes ({!Cycle_sim.record}).  Columns sit in a
    second, small single-flight memo keyed
    [workload fingerprint | memory fingerprint | fidelity tag], so all
    connectivity variants of one architecture at one fidelity share a
    single module-level simulation.  The memo holds at most 16 columns
    (the refine pass interleaves the architectures on the front), is
    never persisted, and counts its traffic as
    [eval.cache.columns.hits], [.misses] and [.evictions] — a [cache.]
    segment, so exempt from the determinism contract.  [cycle_sim.*]
    counters are still recorded once per computed simulation. *)

type fidelity =
  | Sampled of int * int
      (** time-sampled cycle simulation with [(on, off)] windows *)
  | Exact  (** cycle simulation of the full trace *)

val fidelity_tag : fidelity -> string
(** Canonical short form used in cache keys (stable across runs). *)

val eval :
  fidelity:fidelity ->
  workload:Mx_trace.Workload.t ->
  arch:Mx_mem.Mem_arch.t ->
  conn:Mx_connect.Conn_arch.t ->
  unit ->
  Sim_result.t
(** Simulate one (workload, memory, connectivity) design point at the
    requested fidelity.  The result is served from the cache when an
    entry of equal or higher fidelity exists: a [Sampled] request first
    tries Exact-serves-Sampled promotion (hot tier, then disk tier);
    then one lookup under the request's own key goes hot tier, disk
    tier, compute.
    @raise Invalid_argument when [fidelity = Sampled (on, off)] has
    [on <= 0] or [off < 0] (checked before any lookup, so a cached or
    promotable entry does not hide the mistake), or whenever the
    simulator rejects the design (unroutable channel). *)

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
  conn:Mx_connect.Conn_arch.t ->
  unit ->
  Sim_result.t * provenance
(** {!eval} that also reports where the result came from.  Provenance
    is schedule-dependent
    (cache contents depend on cross-domain timing), so events derived
    from it must carry a [cache.] segment in their name — see
    {!Mx_util.Metrics.schedule_dependent}. *)

val default_cache_capacity : int
(** 65536 entries — far above the working set of any bundled experiment,
    so nothing is evicted and cache behaviour stays deterministic. *)

val set_cache_capacity : int -> unit
(** Replace the result cache with a fresh one of the given capacity
    (dropping all entries; 0 or negative disables caching), and the
    column memo with a fresh one (disabled too when the capacity is 0
    or negative).  Not safe to call
    concurrently with running evaluations — configure before
    exploring. *)

val cache_stats : unit -> Mx_util.Memo_cache.stats
(** Hit/miss/eviction totals since the cache was created or last
    resized ({!clear_cache} keeps counters). *)

val column_stats : unit -> Mx_util.Memo_cache.stats
(** The same totals for the column memo, which holds recorded
    columns only: each miss is one {!Cycle_sim.record}. *)

val clear_cache : unit -> unit
(** Drop every cached simulation result and recorded column (counters
    are kept).  Call between independent experiment arms when warm-cache
    carry-over would blur a comparison.  Only empties the hot tier —
    the persistent tier, when open, is untouched (that is what makes
    warm-start tests honest). *)

(** {2 The persistent tier}

    An optional second cache level for simulations, backed by
    {!Mx_util.Persist_cache}:
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
    Bumped whenever the cycle simulator or the fingerprint scheme
    changes in a result-affecting way; stores written under another
    revision are ignored wholesale on open.  Estimate records that
    older stores hold are never read. *)

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
