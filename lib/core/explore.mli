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
    pass), into one of two sinks: the collect sink
    ({!phase1}) keeps every estimate; the front sink ({!promising})
    keeps each shard's (cost, latency, energy) front and builds a
    {!Design.t} only for the points of each architecture's merged
    front.  {!run} uses the front sink, or the collect sink when the
    event log is on, so that every design gets its verdict event.
    Results are taken in queue order, so the design stream — and
    therefore every front — is byte-identical at every [shards] and
    [jobs] setting.  Phase II feeds every committed simulation into a
    {!Mx_util.Pareto.Archive}, so the cost/latency front can be emitted
    at any moment: interrupt a run (see [?interrupt] on {!run}) and the
    returned front is a valid pareto front of exactly the work
    committed so far. *)

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
          estimates themselves are not kept (see {!phase1}) *)
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

val phase1 :
  ?interrupt:(unit -> bool) ->
  config ->
  Mx_trace.Workload.t ->
  Mx_apex.Explore.candidate list ->
  Design.t list list option
(** Phase I into the collect sink: plan every candidate architecture
    into shards (serially — cluster.*, assign.* and [shard.planned]
    records are deterministic — with one {!Mx_sim.Estimator.prepare}
    plan per architecture that has a shard), drain the combined queue
    once on the task pool, each shard task estimating its slice from
    one {!Mx_sim.Estimator.level}, then build one design per estimate,
    per architecture in candidate order.  No estimate enters
    {!Mx_sim.Eval}'s result cache or store.  Returns one estimate list
    per candidate, byte-identical at every [shards]/[jobs] setting, or
    [None] when [interrupt] fired while the queue was draining.  With
    the event log on, emits per architecture every [assign.kept], then
    every [design.created], then each design's [design.evaluated] and
    [eval.cache.provenance].
    @raise Invalid_argument as {!Mx_sim.Estimator.prepare} and
    {!Mx_sim.Estimator.level} do, for the first failing architecture
    in candidate order. *)

val promising :
  ?interrupt:(unit -> bool) ->
  config ->
  Mx_trace.Workload.t ->
  Mx_apex.Explore.candidate list ->
  (Design.t list list * int) option
(** Phase I into the front sink, followed by Phase I selection: the
    same plan and drain as {!phase1}, but each shard task keeps only
    the (cost, latency, energy) front of its slice in a
    {!Mx_util.Pareto.Flat} front, and its own level plan.  The shard
    fronts are merged in queue order into each architecture's front,
    and only the points on it become designs, which {!thin_by_cost}
    then thins to [config.phase1_keep].  Returns, per candidate,
    exactly what {!local_promising} returns for {!phase1}'s estimates
    (the same designs, in the same order, and the same
    [explore.local_front_size] and [explore.phase1_kept] metrics) but
    emits no verdict events; and the number of estimates.  [None] when
    [interrupt] fired while the queue was draining.
    @raise Invalid_argument as {!phase1} does. *)

val connectivity_exploration :
  config ->
  Mx_trace.Workload.t ->
  Mx_apex.Explore.candidate ->
  Design.t list
(** One memory architecture: BRG, clustering levels, feasible
    assignments, estimation — {!phase1} with a single candidate.
    Returns estimated (unsimulated) design points. *)

val thin_by_cost : keep:int -> Design.t list -> Design.t list
(** Even cost-spread subsample of [keep] designs (the cheapest and the
    most expensive always survive; [keep = 1] returns the single
    cheapest).  Identity when the list already fits or [keep <= 0]. *)

val local_promising : config -> Design.t list -> Design.t list
(** Phase I selection: the 3-objective (cost, latency, energy) pareto
    front of one architecture's estimates, thinned to
    [config.phase1_keep].  With the event log enabled, emits the
    terminal Phase I verdict for every input design: [design.kept],
    [design.thinned], or [design.pruned] whose [dominated_by] is the
    first front member, in input order, that dominates the design (one
    always exists, dominance being transitive), so it always names a
    kept or thinned design. *)

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
