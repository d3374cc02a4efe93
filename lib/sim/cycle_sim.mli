(** Trace-driven cycle simulation of a combined memory + connectivity
    architecture (the SIMPRESS-replacement).

    Models an in-order CPU that blocks on memory references.  Each
    access travels: CPU -> serving module over the component carrying
    that channel (arbitration wait + serialization beats), then — on a
    demand miss — module -> DRAM over the off-chip component (wait +
    beats + DRAM row-buffer latency).  Non-critical traffic
    (prefetches, writebacks) occupies the off-chip component and
    perturbs later accesses without stalling the CPU.  Components that
    are not split-transaction stay held for the whole miss path.

    Time-sampling mode ([~sample:(on, off)], Kessler-style) keeps
    module state warm on every access but only accumulates timing
    during "on" windows; the paper uses a 1/9 on/off ratio.

    {b Two stages.}  What a module does with an access does not depend
    on the connectivity, so simulation is split in two:

    - {!record} runs the module simulation ({!Mx_mem.Mem_sim}), the
      DRAM row-buffer model and the compute-gap recurrence once per
      (workload, architecture, sampling pattern) and keeps, per timed
      access, the id of its distinct outcome (serving class, sizes,
      DRAM and L2 traffic, critical bytes, extra latency and energy,
      DRAM latency, compute gap) in a {!column}, with the number of
      timed accesses of each outcome;
    - {!time_many} replays K connectivities over a column in one pass
      over its timed accesses.  Per distinct outcome it builds one
      shared row of what depends on the architecture alone (compute
      gap, module and DRAM latency, whether the access has an L2 leg,
      DRAM traffic, a direct, critical or background transfer, and
      the DRAM, module and extra energy), and one row per
      connectivity (its bus legs' bindings, latencies and
      occupancies, whether its CPU-side component is split, its bus
      energy).  Per access the loop reads the outcome id and the
      shared row once, then updates each connectivity's own state
      (clock, per-bus free times and waits, MSHRs, energy) from its
      own row, with the integer and float operations of a lone pass in
      the same order; an access served on chip takes an inner loop
      with no miss-path work.  No division, no allocation and no boxed
      float per access.  Per-bus busy cycles and transactions are the
      per-outcome counts times row constants.  {!time} is the
      one-connectivity case.

    Every entry point is [time (record ...)], and its result equals,
    bit for bit, a straight-line pass that computes each access's
    module outcome and timing in place (the [Mx_check.Oracle.replay]
    reference); a connectivity's result does not depend on which
    others share its pass.  A column is immutable once recorded, so
    domains may time it concurrently.

    The streamed entry points ({!run_stream}) record and time one chunk
    of a {!Mx_trace.Trace_stream.t} at a time, in constant memory; the
    in-memory ones ({!run}, {!run_traced}) record the whole trace.
    Both walk the identical access sequence with the identical
    arithmetic, so their results are byte-identical — including under
    [~sample]. *)

type cpu_model =
  | Blocking
      (** in-order CPU that stalls on every reference — the paper's
          model *)
  | Overlap of int
      (** non-blocking loads with the given number of MSHRs: a demand
          miss occupies a slot and completes in the background; the CPU
          only stalls when all slots are busy.  An optimistic bound used
          by the MLP ablation ("would the connectivity ranking change if
          the CPU could overlap misses?"). *)

val run :
  ?sample:int * int ->
  ?cpu:cpu_model ->
  workload:Mx_trace.Workload.t ->
  arch:Mx_mem.Mem_arch.t ->
  conn:Mx_connect.Conn_arch.t ->
  unit ->
  Sim_result.t
(** [time (record ?sample ~workload ~arch ()) ~conn].  [cpu] defaults
    to [Blocking].
    @raise Invalid_argument when sampling windows are non-positive,
    when [Overlap n] has [n <= 0] (both checked before any simulation),
    or when an on-window access needs a channel the connectivity does
    not implement.  The channel check is lazy: an access class whose
    accesses all fall in off-windows needs no channel. *)

val default_sample : int * int
(** (1000, 9000): the paper's 1/9 on/off time-sampling ratio. *)

(** Per-component-instance utilisation, for designer reports ("which bus
    is the bottleneck?"). *)
type bus_stat = {
  component : string;  (** library component name *)
  carries : string;  (** the cluster (channel set) it implements *)
  txns : int;  (** transactions carried *)
  busy_cycles : int;  (** cycles the component was occupied *)
  wait_cycles : int;  (** cycles CPU-visible requests queued behind it *)
  utilization : float;  (** busy / total execution cycles *)
}

val run_traced :
  ?sample:int * int ->
  ?cpu:cpu_model ->
  workload:Mx_trace.Workload.t ->
  arch:Mx_mem.Mem_arch.t ->
  conn:Mx_connect.Conn_arch.t ->
  unit ->
  Sim_result.t * bus_stat list
(** {!run} plus the per-component utilisation breakdown (one entry per
    connectivity binding, in binding order). *)

val run_stream :
  ?sample:int * int ->
  ?cpu:cpu_model ->
  ?seek:bool ->
  workload:Mx_trace.Workload.streamed ->
  arch:Mx_mem.Mem_arch.t ->
  conn:Mx_connect.Conn_arch.t ->
  unit ->
  Sim_result.t
(** Replay a streamed workload.  With [seek:false] (the default) every
    chunk is fetched in order and the result is byte-identical to
    materialising the stream and calling {!run} — the property the
    [trace] check suite pins down.

    [~seek:true] (requires [~sample]) is {e cold sampling}: chunks that
    fall entirely inside "off" windows are never fetched — no I/O, no
    decode, and {e no module-state warming} from the skipped spans
    (compute-gap phase is still advanced exactly).  On a 1/9 sampling
    ratio with the default chunk size this reads under a quarter of the
    file's chunks, at the cost of colder caches in the on-windows than
    warm (seekless) sampling would give; use it for interactive scans
    of very large traces, not for golden numbers.
    @raise Invalid_argument for [~seek:true] without [~sample]. *)

val run_stream_traced :
  ?sample:int * int ->
  ?cpu:cpu_model ->
  ?seek:bool ->
  workload:Mx_trace.Workload.streamed ->
  arch:Mx_mem.Mem_arch.t ->
  conn:Mx_connect.Conn_arch.t ->
  unit ->
  Sim_result.t * bus_stat list
(** {!run_stream} plus the per-component utilisation breakdown. *)

(** {2 The two stages} *)

type column
(** The recorded module outcomes of one (workload, architecture,
    sampling pattern): one small id per on-window access into a table
    of distinct outcome tuples, each tuple including the compute gap
    before its access, and the number of on-window accesses of each
    tuple.  A gap takes one of two values (the floor of the
    ops-per-access rate, or one more), so it at most doubles the table.
    Ids take 1 byte each while there are at most 256 distinct tuples
    and widen to 2, 4 or 8 bytes beyond, so a column is lossless for
    any architecture and never holds more than 8 bytes per access plus
    its tuple table. *)

val record :
  ?sample:int * int ->
  workload:Mx_trace.Workload.t ->
  arch:Mx_mem.Mem_arch.t ->
  unit ->
  column
(** Run the modules and the DRAM model over the whole trace.  Under
    [~sample] only on-window accesses get an id; off-window accesses
    still warm the modules and the row buffers.
    @raise Invalid_argument on bad sampling windows or a region outside
    the architecture's binding table. *)

val time :
  ?cpu:cpu_model -> column -> conn:Mx_connect.Conn_arch.t -> Sim_result.t
(** Time one connectivity over a column: {!time_many} of one.  Records
    the [cycle_sim.*] counters once per call.
    @raise Invalid_argument as {!run}. *)

val time_traced :
  ?cpu:cpu_model ->
  column ->
  conn:Mx_connect.Conn_arch.t ->
  Sim_result.t * bus_stat list
(** {!time} plus the per-component utilisation breakdown. *)

val time_many :
  ?cpu:cpu_model ->
  column ->
  Mx_connect.Conn_arch.t list ->
  (Sim_result.t * bus_stat list) list
(** Time K connectivities over a column in one pass, one CPU model for
    all: element [i] is {!time_traced}[ ~cpu column ~conn:(List.nth
    conns i)], bit for bit, and the [cycle_sim.*] counters are recorded
    once per connectivity, in list order.  The pass reads each timed
    access's outcome id and shared row once, then updates each
    connectivity's own state from that connectivity's own row.
    [time_many column []] is [[]].
    @raise Invalid_argument as {!run}: when several connectivities
    miss a channel some on-window access needs, the first of them in
    list order raises, with the message {!time} would raise for it. *)

val distinct_outcomes : column -> int
(** Size of the column's outcome table: distinct tuples, compute gap
    included. *)

val footprint : column -> int
(** Bytes the column holds: its ids plus its outcome table and
    counts. *)

val record_utilization_gauges : ?registry:Mx_util.Metrics.t -> unit -> unit
(** Derive [cycle_sim.bus.<component>.utilization] gauges (aggregate
    busy cycles / total simulated cycles, per component type, across
    every simulation recorded so far) from the registry's
    [cycle_sim.bus.*] counters.  Deterministic because it is computed
    from schedule-invariant counters; call it after a run, before
    rendering.  Defaults to {!Mx_util.Metrics.global}. *)
