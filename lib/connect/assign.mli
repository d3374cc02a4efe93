(** Enumeration of feasible cluster-to-component assignments.

    For one clustering level, the candidate connectivity architectures
    are the cartesian product of each cluster's feasible component
    choices.  [enumerate_levels] walks every clustering level of a BRG,
    which is exactly the design space the [do/while] loop of the
    paper's [ConnectivityExploration] procedure visits. *)

val choices :
  onchip:Component.t list -> offchip:Component.t list -> Cluster.t ->
  Component.t list
(** Feasible components for one cluster (respecting fan-in and chip
    boundary). *)

val enumerate :
  ?max_designs:int ->
  onchip:Component.t list ->
  offchip:Component.t list ->
  Cluster.t list ->
  Conn_arch.t list
(** All feasible assignments for one clustering level, capped at
    [max_designs] (default unlimited) to bound pathological products.
    Returns [] when some cluster has no feasible component. *)

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
