(** The three exploration strategies compared in the paper's Table 2.

    - {e Pruned}: the ConEx heuristic — only APEX's most promising
      memory architectures reach connectivity exploration, and only each
      architecture's locally-promising estimates reach full simulation.
    - {e Neighborhood}: Pruned, plus the estimate-space neighbours of
      every locally selected point, and the un-thinned APEX pareto
      front — a wider net for modest extra time, through
      {!Explore.promising} with [?neighbors].
    - {e Full}: brute force — every candidate memory architecture and
      every feasible connectivity assignment is fully simulated; defines
      the true pareto front but is often infeasible (the paper ran a
      month for compress and could not finish li).  Its projection is
      the sum of {!Explore.plan_shards}' caps, taken before any
      connectivity is built; its designs come from {!Shard.enumerate},
      in the order of {!Mx_connect.Assign.enumerate_levels}. *)

type kind = Pruned | Neighborhood | Full

exception Full_infeasible of { projected_sims : int; budget : int }
(** Raised when the Full strategy would exceed its simulation budget —
    the paper's "Full simulation was infeasible" case (li). *)

type outcome = {
  kind : kind;
  designs : Design.t list;  (** all fully simulated designs *)
  pareto_cost_perf : Design.t list;
  n_estimates : int;
  n_simulations : int;
  wall_seconds : float;
}

val kind_to_string : kind -> string

val run :
  ?config:Explore.config ->
  ?neighbors:int ->
  ?full_budget:int ->
  kind ->
  Mx_trace.Workload.t ->
  outcome
(** [run kind workload] executes one strategy.  [neighbors] (default 2)
    is the per-point neighbour count for [Neighborhood]; [full_budget]
    (default 300_000) caps the Full strategy's simulation count.
    @raise Full_infeasible when Full's projection exceeds
    [full_budget], before any connectivity is built. *)
