(** ConEx: the Connectivity Exploration algorithm (Section 5 of the
    paper).

    {b Procedure ConnectivityExploration} (per memory architecture):
    profile the memory-modules architecture, construct the Bandwidth
    Requirement Graph, then walk the hierarchical clustering levels —
    at each level enumerate feasible assignments of logical connections
    to physical components from the connectivity library and estimate
    each candidate's cost, performance and power.

    {b Algorithm ConEx} (two phases): Phase I runs the procedure for
    every APEX-selected memory architecture and keeps only each
    architecture's locally most promising (pareto) points; Phase II
    fully simulates the combined survivors and selects the global
    pareto designs.

    {b Sharded, streamed, anytime execution.}  Phase I is organised as
    a work-queue of design-space {!Shard}s (cluster-level ×
    assignment-prefix slices, one queue across all selected
    architectures) drained once by the {!Mx_util.Task_pool}.  A shard
    task walks its choice vectors and estimates each from an
    {!Mx_sim.Estimator.level} (Phase I's one source of estimates;
    {!Mx_sim.Eval} serves the simulations of Phase II and the refine
    pass) and keeps only its slice's (cost, latency, energy) front
    ({!promising}); designs are built for each architecture's merged
    front only, and what needs every estimate walks the shards again,
    so {!run} takes one path with the event log on or off.  Results are
    taken in queue order, so every front is byte-identical at every
    [shards] and [jobs] setting.  {!phase1} and {!local_promising} are
    the reference that path is checked against.  Phase II
    feeds every committed simulation into a {!Mx_util.Pareto.Archive},
    so the cost/latency front can be emitted at any moment: interrupt a
    run (see [?interrupt] on {!run}) and the returned front is a valid
    pareto front of exactly the work committed so far. *)

type config = {
  apex : Mx_apex.Explore.config;
  onchip : Mx_connect.Component.t list;
  offchip : Mx_connect.Component.t list;
  max_designs_per_level : int;
      (** cap on assignments enumerated per clustering level *)
  phase1_keep : int;
      (** cap on locally-kept designs per memory architecture *)
  sample : (int * int) option;
      (** when set, Phase II uses time-sampled simulation at this
          on/off ratio instead of exact simulation (the paper's 1/9
          sampling); [None] = exact *)
  refine_top : int;
      (** when [sample] is set and [refine_top > 0], the designs on the
          sampled cost/performance front are re-simulated exactly (up to
          this many) — the paper's "we then use full simulation for the
          most promising designs, to further refine the tradeoff
          choices"; ignored when [sample = None] *)
  jobs : int;
      (** number of domains used for the Phase I shard queue (each
          shard task enumerates and estimates its slice), the Phase II
          simulations and the refinement pass, via
          {!Mx_util.Task_pool}.  [jobs <= 1] runs everything
          serially on the calling domain.  Results are bit-identical at
          every jobs level (same designs, same order, same pareto
          front).  Defaults to {!Mx_util.Task_pool.default_jobs}. *)
  shards : int;
      (** target number of prefix-shards each clustering level is split
          into for the Phase I work-queue (see {!Shard.plan}); the
          front is byte-identical at every value.  Default 1. *)
  archive_eps : float;
      (** ε-dominance slack of the anytime archive (see
          {!Mx_util.Pareto.Archive.create}); 0 (the default) keeps the
          exact front. *)
  archive_capacity : int option;
      (** optional bound on the anytime archive's size; [None] (the
          default) keeps every non-dominated point. *)
}

val default_config : config
val reduced_config : config
(** Trimmed module and component catalogues so that even the Full
    strategy terminates quickly; used by Table 2 and the test suite. *)

type result = {
  workload : Mx_trace.Workload.t;
  apex_selected : Mx_apex.Explore.candidate list;
  simulated : Design.t list;  (** Phase II simulated survivors *)
  pareto_cost_perf : Design.t list;
      (** cost/performance front of the simulated designs — with the
          default archive settings, exactly
          [Pareto.front2 ~x:cost ~y:latency simulated] *)
  n_estimates : int;
      (** Phase I estimates across all memory architectures; the
          estimates themselves are not kept (see {!promising}) *)
  n_simulations : int;
  wall_seconds : float;
  interrupted : bool;
      (** true when [?interrupt] stopped the run early; the fronts and
          counts then describe the committed prefix of the work *)
}

val fidelity_of_sample : (int * int) option -> Mx_sim.Eval.fidelity
(** [None] is {!Mx_sim.Eval.Exact}, [Some (on, off)] is
    {!Mx_sim.Eval.Sampled} — how a [config.sample] maps onto the
    evaluation-engine ladder. *)

val make_archive : config -> Design.t Mx_util.Pareto.Archive.t
(** An empty anytime archive on (cost, latency) with [config]'s
    [archive_eps] and [archive_capacity]: what Phase II and the
    strategies feed. *)

val plan_shards :
  config -> workload_fp:string -> Mx_apex.Explore.candidate -> Shard.t list
(** One architecture's design space: its BRG, the clustering levels
    (lowest bandwidth first) and {!Shard.plan} at [config.shards] and
    [config.max_designs_per_level] over [config.onchip] and
    [config.offchip], with what {!Shard.plan} records.  The shard caps
    sum to the architecture's number of connectivities. *)

val shard_finished : Shard.t -> unit
(** Count a shard in [shard.finished] and emit its [shard.finished]
    record: at Phase I's ordered commit, and as Full enumerates it. *)

val promising :
  ?interrupt:(unit -> bool) ->
  ?neighbors:int ->
  config ->
  Mx_trace.Workload.t ->
  Mx_apex.Explore.candidate list ->
  (Design.t list list * int) option
(** Phase I and its selection, the path of {!run}: plan every candidate
    into shards with {!plan_shards} and one {!Mx_sim.Estimator.prepare}
    plan (serially, so planning records are deterministic), drain the
    combined queue once on the task pool, each shard task estimating
    its slice from one {!Mx_sim.Estimator.level} and keeping the
    slice's (cost, latency, energy) front.  The shard fronts merge in
    queue order into each architecture's front; only its points become
    designs, which {!thin_by_cost} thins to [config.phase1_keep].
    Returns, per candidate, what {!local_promising} returns for
    {!phase1}'s estimates, with the same [explore.local_front_size] and
    [explore.phase1_kept] metrics; and the number of estimates.  No
    estimate enters {!Mx_sim.Eval}'s cache or store.

    With [neighbors = k > 0] (default 0) each architecture's kept
    designs are followed by each kept point's [k] nearest other
    estimates ([Mx_check.Oracle.neighbors_of]): squared distance with
    each axis divided by its span over the architecture (1 when 0),
    ties to the earlier stream position, each estimate once.

    With the event log on, one more walk over each architecture's
    shards emits per estimate, in stream order, [assign.kept],
    [design.created], [design.evaluated], [eval.cache.provenance] and
    its verdict: [design.kept], [design.thinned], or [design.pruned]
    whose [dominated_by] is the first front member, in stream order,
    that dominates it; then a [design.neighbor] per neighbour.

    [None] when [interrupt] fired while the queue was draining.
    @raise Invalid_argument as {!Mx_sim.Estimator.prepare} and
    {!Mx_sim.Estimator.level} do, for the first failing architecture
    in candidate order. *)

val phase1 :
  ?interrupt:(unit -> bool) ->
  config ->
  Mx_trace.Workload.t ->
  Mx_apex.Explore.candidate list ->
  Design.t list list option
(** The reference Phase I: {!promising}'s plan and drain, but every
    estimate becomes a design.  One estimate list per candidate,
    byte-identical at every [shards]/[jobs] setting, or [None] when
    [interrupt] fired.  Emits no events of its own; {!run} and the
    strategies never call it.
    @raise Invalid_argument as {!promising} does. *)

val thin_by_cost : keep:int -> Design.t list -> Design.t list
(** Even cost-spread subsample of [keep] designs (the cheapest and the
    most expensive always survive; [keep = 1] returns the single
    cheapest).  Identity when the list already fits or [keep <= 0]. *)

val local_promising : config -> Design.t list -> Design.t list
(** The reference Phase I selection: the 3-objective (cost, latency,
    energy) pareto front of one architecture's estimates, thinned to
    [config.phase1_keep].  Emits no events. *)

val evaluate_designs :
  config ->
  Mx_trace.Workload.t ->
  stage:string ->
  fidelity:Mx_sim.Eval.fidelity ->
  ?interrupt:(unit -> bool) ->
  ?archive:Design.t Mx_util.Pareto.Archive.t ->
  Design.t list ->
  Design.t list
(** Evaluate each design at the given fidelity on the task pool
    ([config.jobs], one design per dispatch) and attach the result with
    {!Design.with_sim}.  Results commit on the calling domain in input
    order ({!Mx_util.Task_pool.parallel_map_commit}): each commit emits
    the [design.evaluated] and [eval.cache.provenance] events under
    [stage] and inserts the design into [?archive] when given (emitting
    [archive.insert] / [archive.reject] / [archive.evict] events), so
    event sequences and archive contents are identical at every jobs
    level.  When [?interrupt] returns true the evaluation stops at a
    clean input prefix and the committed designs are returned (the
    result is shorter than the input).  Used by Phase II
    ([stage = "phase2"]), refinement ([stage = "refine"]) and the
    strategy harness. *)

val run :
  ?config:config ->
  ?interrupt:(unit -> bool) ->
  Mx_trace.Workload.t ->
  result
(** The full two-phase ConEx algorithm: APEX selection, sharded
    per-architecture connectivity exploration, local selection, full
    simulation of the combined set, global pareto via the anytime
    archive.

    [?interrupt] (polled between units of committed work, never from
    workers) makes the run {e anytime}: when it returns true the run
    stops at the next commit boundary and returns [interrupted = true]
    with a valid result for the committed prefix — in particular
    [pareto_cost_perf] is the archive's current front (empty when the
    interrupt fired before any simulation committed). *)
