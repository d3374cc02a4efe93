(** Obviously-correct reference implementations ("oracles") for the
    optimised algorithms of the exploration flow.

    Each oracle trades all performance for directness: quadratic
    filters, exhaustive enumeration, straight-line replay.  The
    invariant suites ({!Suites}) run the production code and the
    oracle on the same generated inputs and compare results — any
    divergence is a bug in one of the two, and the shrunk
    counterexample usually makes it obvious in which. *)

val dominates : axes:('a -> float) list -> 'a -> 'a -> bool
(** Textbook dominance: no worse on every axis, strictly better on at
    least one.  Independent of {!Mx_util.Pareto.dominates}. *)

val pareto_front : axes:('a -> float) list -> 'a list -> 'a list
(** Quadratic front by definition: every point no input point
    dominates, in first-occurrence order (duplicates all kept) —
    the specification of {!Mx_util.Pareto.front}. *)

val cluster_canon : Mx_connect.Cluster.t -> string * float * bool
(** Canonical comparable form of a cluster: (description, bandwidth,
    off-chip flag). *)

val cluster_levels :
  Mx_connect.Channel.t list -> Mx_connect.Cluster.t list list
(** Naive bottom-up clustering mirroring the documented merge rule:
    per boundary class the two lowest-bandwidth clusters (stable on
    ties), across classes the pair with the smaller combined bandwidth
    (ties to on-chip), merged cluster placed at the head.  The
    specification of {!Mx_connect.Cluster.levels}. *)

val assign_feasible :
  onchip:Mx_connect.Component.t list ->
  offchip:Mx_connect.Component.t list ->
  Mx_connect.Cluster.t ->
  Mx_connect.Component.t list
(** Feasible components for one cluster by direct filtering — the
    specification of {!Mx_connect.Assign.choices}. *)

val assign_enumerate :
  onchip:Mx_connect.Component.t list ->
  offchip:Mx_connect.Component.t list ->
  Mx_connect.Cluster.t list ->
  Mx_connect.Conn_arch.t list
(** Exhaustive cartesian product of per-cluster feasible components
    (empty when some cluster is infeasible) — the specification of
    {!Mx_connect.Assign.enumerate} without a cap. *)

val replay :
  ?sample:int * int ->
  ?cpu:Mx_sim.Cycle_sim.cpu_model ->
  workload:Mx_trace.Workload.t ->
  arch:Mx_mem.Mem_arch.t ->
  conn:Mx_connect.Conn_arch.t ->
  unit ->
  Mx_sim.Sim_result.t
(** Straight-line, single-pass replay of the cycle simulator's whole
    timing model: any architecture (L2, victim and write buffers
    included), time sampling and both CPU models ([cpu] defaults to
    [Blocking]).  One loop over {!Mx_mem.Mem_sim.access} computes each
    access's module outcome, DRAM row-buffer latency and connectivity
    timing (arbitration waits, serialization, bus holds, MSHRs) in
    place, with no recorded column, no per-outcome tables and no
    accounting machinery — the specification {!Mx_sim.Cycle_sim.time}
    over {!Mx_sim.Cycle_sim.record} must reproduce bit for bit.
    @raise Invalid_argument on bad sampling windows, an [Overlap] with
    no MSHR, or a timed access whose channel is unrouted. *)

val estimate :
  workload:Mx_trace.Workload.t ->
  arch:Mx_mem.Mem_arch.t ->
  profile:Mx_mem.Mem_sim.stats ->
  conn:Mx_connect.Conn_arch.t ->
  Mx_sim.Sim_result.t
(** The Phase I analytic model as one straight-line function: each
    leg found by scanning the bindings, each service time measured by
    scheduling two transactions on a reservation table
    ({!Mx_connect.Reservation_table.initiation_interval}), every term
    re-derived from the profile inside the four-step fixed point — the
    specification {!Mx_sim.Estimator.run} over
    {!Mx_sim.Estimator.prepare} must reproduce bit for bit
    ({!Mx_sim.Sim_result.to_wire}).
    @raise Invalid_argument with {!Mx_sim.Estimator.estimate}'s
    messages, in the same order: an empty profile, then per active
    serving class (in {!Mx_sim.Serving.all} order) a missing CPU,
    cache<->L2 or DRAM leg. *)

val eval_direct :
  fidelity:Mx_sim.Eval.fidelity ->
  workload:Mx_trace.Workload.t ->
  arch:Mx_mem.Mem_arch.t ->
  ?profile:Mx_mem.Mem_sim.stats ->
  conn:Mx_connect.Conn_arch.t ->
  unit ->
  Mx_sim.Sim_result.t
(** Direct recomputation of {!Mx_sim.Eval.eval} with no cache
    involved: {!estimate} for [Estimate], {!Mx_sim.Cycle_sim.run} for
    the simulated fidelities. *)

val profiles :
  regions:Mx_trace.Region.t list ->
  Mx_mem.Mem_arch.t list ->
  Mx_trace.Trace.t ->
  Mx_mem.Mem_sim.stats list
(** One straight-line {!Mx_mem.Mem_sim.run} per architecture — the
    specification of {!Mx_mem.Mem_sim.run_all}. *)

val profile_canon : Mx_mem.Mem_sim.stats -> (string * int) list
(** Canonical comparable form of a module-level profile: every scalar
    counter, then every per-serving counter for each serving class,
    named, in a fixed order. *)

type repl_event = {
  o_hit : bool;
  o_writeback : bool;
  o_evicted_line : int option;  (** global line number, as {!Mx_mem.Cache} *)
}

val repl_cache :
  Mx_mem.Params.cache -> (int * bool) list -> repl_event list
(** Per-policy reference cache simulator: replays an [(addr, write)]
    stream through a naive model of the geometry's replacement policy
    and returns the full hit/writeback/evict sequence — the
    specification of {!Mx_mem.Cache.access}.  True LRU and FIFO sets
    are recency/fill-ordered lists (no way indexes at all); tree-PLRU
    uses a recursive binary tree; QLRU and MRU_N transcribe their
    age/bit rules directly.  @raise Invalid_argument on a malformed
    geometry. *)

val stack_hits : capacity:int -> int list -> bool list
(** Fully-associative LRU by stack distance over a line-number stream:
    a reference hits iff its line was seen before with fewer than
    [capacity] distinct lines touched since — the classical
    stack-algorithm specification of single-set true LRU. *)

val percentile : float list -> p:float -> float option
(** Nearest-rank percentile by direct sort-and-index — the
    specification of {!Mx_util.Stats.percentile}. *)

val stddev : float list -> float
(** Two-pass population standard deviation (0.0 below two elements) —
    the specification of {!Mx_util.Stats.stddev}. *)

val spearman_distinct : float list -> float list -> float
(** Closed-form Spearman [1 - 6 sum d^2 / (n (n^2 - 1))] over integer
    ranks; only valid when each list's values are pairwise distinct —
    the tie-free specification of {!Mx_util.Stats.spearman}. *)
