(** Enumeration of feasible cluster-to-component assignments.

    For one clustering level, the candidate connectivity architectures
    are the cartesian product of each cluster's feasible component
    choices.  [enumerate_levels] walks every clustering level of a BRG,
    which is exactly the design space the [do/while] loop of the
    paper's [ConnectivityExploration] procedure visits.  {!level} is
    the one place a level's choices and accounting are worked out:
    {!enumerate} and Phase I's shard planner ([Conex.Shard.plan]) both
    call it. *)

val choices :
  onchip:Component.t list -> offchip:Component.t list -> Cluster.t ->
  Component.t list
(** Feasible components for one cluster (respecting fan-in and chip
    boundary). *)

val space : ('a * 'b list) list -> int
(** Saturating product of the choice counts: the number of assignments
    of the clusters, [max_int] when it overflows. *)

val level :
  ?max_designs:int ->
  onchip:Component.t list ->
  offchip:Component.t list ->
  Cluster.t list ->
  (Cluster.t * Component.t list) list option
(** One clustering level's clusters, each with its {!choices}, and the
    level's accounting on the calling domain.  [None] when some cluster
    has no feasible component: counted in [assign.infeasible_levels]
    with an [assign.level_infeasible] event.  Otherwise the first
    [max_designs] (default unlimited) assignments are counted in
    [assign.enumerated] and the rest of the {!space} in
    [assign.cap_pruned], with one [assign.level] event. *)

val enumerate :
  ?max_designs:int ->
  onchip:Component.t list ->
  offchip:Component.t list ->
  Cluster.t list ->
  Conn_arch.t list
(** All feasible assignments for one clustering level in odometer
    order (the last cluster turning fastest), capped at [max_designs]
    (default unlimited) to bound pathological products; [] when some
    cluster has no feasible component.  Records the {!level}
    accounting. *)

val enumerate_levels :
  ?order:Cluster.order ->
  ?max_designs_per_level:int ->
  onchip:Component.t list ->
  offchip:Component.t list ->
  Channel.t list ->
  Conn_arch.t list
(** Every clustering level's assignments, finest level first.  No
    design repeats: levels differ in cluster count, and one level's
    product never repeats an assignment.  [order] selects the merge
    policy (default {!Cluster.Lowest_bandwidth_first}, the paper's
    heuristic). *)

val count_levels : Channel.t list -> int
(** Number of clustering levels for a channel set (diagnostics and
    Table 2's exploration-size accounting). *)
