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

    {b Prepare once, run per connectivity.}  {!prepare} derives every
    connectivity-independent term of an architecture once: the active
    serving classes and their access counts, average sizes, fractions
    and miss rates, module latency and energy, critical bytes, the L2
    and DRAM traffic terms and the ops rate.  {!run} then estimates one
    connectivity from that plan: one pass over the bindings routes each
    class's CPU, cache<->L2 and DRAM legs, each leg's service time and
    transaction latency is computed once, and the four-step fixed point
    runs over small per-leg float arrays.

    {b Exactness.}  [run (prepare ...)] is bit-identical to the
    straight-line model [Mx_check.Oracle.estimate] on
    {!Sim_result.to_wire}, which [conex check --suite estimate]
    checks:
    - the split moves computation without changing any float operation
      or its order (the left-to-right energy sum and the accumulation
      order of the bus wait included);
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
    share it; [run] allocates only its own per-connectivity arrays. *)

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

val run : plan -> conn:Mx_connect.Conn_arch.t -> Sim_result.t
(** Estimate one connectivity of the plan's architecture.
    @raise Invalid_argument when the connectivity misses a needed
    channel, checked per active serving class in {!Serving.all} order:
    the CPU leg, then cache<->L2, then the DRAM leg. *)

val estimate :
  workload:Mx_trace.Workload.t ->
  arch:Mx_mem.Mem_arch.t ->
  profile:Mx_mem.Mem_sim.stats ->
  conn:Mx_connect.Conn_arch.t ->
  Sim_result.t
(** [run (prepare ~workload ~arch ~profile) ~conn].
    @raise Invalid_argument when the profile saw no accesses or the
    connectivity misses a needed channel. *)
