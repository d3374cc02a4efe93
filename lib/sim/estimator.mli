(** Fast analytic cost/performance/power estimation for Phase I of
    ConEx.

    Uses the one-time module-level profile of a memory architecture
    (miss ratios, per-channel transaction counts and sizes — all
    connectivity-independent) plus the closed-form service times of
    each connectivity component, and closes the loop with a small
    fixed-point iteration on total execution time:

    - component utilisation  rho_j = busy_j / T,
    - queueing wait          W_j ~ S_j/2 * rho_j / (1 - rho_j),
    - average latency        L = sum over serving classes of
                                 (wait + transaction + module latency +
                                  miss-rate * off-chip path),
    - total time             T = accesses * (1 + ops/access) + accesses*L.

    No trace replay: thousands of connectivity candidates per memory
    architecture are estimated from one profile, which is what lets the
    Pruned search skip full simulation of the design space.  Absolute
    accuracy is deliberately traded for speed; its {e fidelity}
    (relative ordering) is validated against the cycle simulator in the
    test suite.

    {b Prepare once, tabulate once per level, then look up.}
    {!prepare} derives every connectivity-independent term of an
    architecture once: the active serving classes and their access
    counts, average sizes, fractions and miss rates, module latency and
    energy, critical bytes, the L2 and DRAM traffic terms and the ops
    rate.  Within one clustering level (or one shard of it) the
    clusters are fixed and only each cluster's component varies, so
    {!level} routes every class's CPU, cache<->L2 and DRAM legs to
    their clusters once and tabulates, per cluster choice, each leg's
    half service time, transaction latency and energy term and each
    cluster's busy time.  {!assess} then estimates one assignment by
    table lookups plus the four-step fixed point, allocating nothing.
    {!run} is the one-choice case: a level whose clusters are the
    connectivity's bindings, each with its own component.

    {b Exactness.}  {!assess} and [run (prepare ...)] are bit-identical
    to the straight-line model [Mx_check.Oracle.estimate] on
    {!Sim_result.to_wire}, which [conex check --suite estimate]
    checks:
    - tabulating moves computation without changing any float operation
      or its order: a cluster's busy time adds its legs' terms from
      [0.0] in serving order (CPU leg, then L2 leg, then DRAM leg), the
      energy sum runs left to right over the classes, and the bus wait
      accumulates in the oracle's order;
    - the service and transaction times hoisted out of the fixed point
      never read the iterated total;
    - a leg's service time is {!Mx_connect.Component.occupancy}, which
      equals {!Mx_connect.Reservation_table.initiation_interval} for
      every library component at every transfer size: a non-pipelined
      component holds one resource for [base + data] cycles, and a
      pipelined one gives [max (max 1 base) data = data] because every
      pipelined library component has [base_latency <= 1 <= data]
      (pinned for sizes 1..256 by [test/test_connect.ml]).

    A plan is immutable once built, so {!Mx_util.Task_pool} domains may
    share it.  A level holds its own scratch: one domain at a time may
    assess with it. *)

type plan
(** Every connectivity-independent term of one (workload, architecture,
    profile). *)

val prepare :
  workload:Mx_trace.Workload.t ->
  arch:Mx_mem.Mem_arch.t ->
  profile:Mx_mem.Mem_sim.stats ->
  plan
(** @raise Invalid_argument ["Estimator.estimate: empty profile"] when
    the profile saw no accesses. *)

type level
(** A plan's tables for one fixed list of clusters, each with its
    component choices, plus the scratch of one assessment. *)

val level :
  plan -> (Mx_connect.Cluster.t * Mx_connect.Component.t array) array ->
  level
(** [level p clusters] tabulates every assignment of one component per
    cluster, [clusters] in binding order.  Each leg is carried by the
    first cluster holding its endpoint pair.
    @raise Invalid_argument when the clusters miss a needed channel,
    checked per active serving class in {!Serving.all} order: the CPU
    leg, then cache<->L2, then the DRAM leg — the message {!run} gives
    for any connectivity of these clusters. *)

val assess : level -> int array -> unit
(** [assess lv choice] estimates the connectivity that binds cluster
    [j] to its component [choice.(j)], and keeps the result in the
    level's {!outcome}.  Allocates nothing. *)

(** The last assessment of a level, overwritten by the next one. *)
type outcome = private {
  mutable latency : float;  (** average memory latency, cycles *)
  mutable energy_nj : float;  (** average energy per access *)
  mutable total : float;  (** total cycles, before truncation *)
  mutable bus_wait : float;  (** total bus wait, before truncation *)
}

val outcome : level -> outcome
(** The level's outcome record, the one every {!assess} overwrites. *)

val result : level -> Sim_result.t
(** The last assessment as an estimate result: [avg_mem_latency] and
    [avg_energy_nj] are the outcome's [latency] and [energy_nj]. *)

val run : plan -> conn:Mx_connect.Conn_arch.t -> Sim_result.t
(** Estimate one connectivity of the plan's architecture: {!result}
    after {!assess} on the level of its bindings, one component each.
    @raise Invalid_argument as {!level} does. *)

val estimate :
  workload:Mx_trace.Workload.t ->
  arch:Mx_mem.Mem_arch.t ->
  profile:Mx_mem.Mem_sim.stats ->
  conn:Mx_connect.Conn_arch.t ->
  Sim_result.t
(** [run (prepare ~workload ~arch ~profile) ~conn].
    @raise Invalid_argument when the profile saw no accesses or the
    connectivity misses a needed channel. *)
