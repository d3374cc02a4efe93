(** Structured generators for the correctness harness.

    Every generator draws from an explicit {!Mx_util.Prng.t} (no global
    randomness) and is scaled by an explicit [size], so a failing case
    is fully reproduced by its [(seed, size)] pair and the {!Runner}
    can shrink by regenerating at the same seed with smaller sizes.
    Smaller sizes yield structurally simpler values: fewer points,
    fewer channels, fewer regions, shorter traces. *)

val grid_points : Mx_util.Prng.t -> size:int -> dim:int -> float array list
(** Points on a coarse integer grid (coordinates in [0..5]): forces
    ties and duplicate objective vectors, the cases where dominance
    logic usually goes wrong.  Between 1 and [5 * size] points. *)

val continuous_points :
  Mx_util.Prng.t -> size:int -> dim:int -> float array list
(** Points with uniform coordinates in [\[0, 1)]; ties have
    probability ~0.  Between 1 and [5 * size] points. *)

val special_points :
  Mx_util.Prng.t -> size:int -> dim:int -> float array list
(** Points whose coordinates mix NaN, both infinities, [-0.0] and [0.0]
    with the integers [-1..2], and where about a quarter of the points
    repeat an earlier vector: the values on which a sort order and the
    [<=]/[<] dominance tests can disagree.  Between 1 and [5 * size]
    points. *)

val floats : Mx_util.Prng.t -> size:int -> float list
(** Exactly [size] floats in [\[0, 100)]. *)

val json : Mx_util.Prng.t -> size:int -> Mx_util.Json.t
(** A JSON value nested up to [1 + size / 3] levels, with up to
    [min 6 size] items per array or object: strings and keys of
    arbitrary bytes (quotes, backslashes, control and high bytes drawn
    often), objects that repeat a key, and finite numbers — integers,
    negatives, signed zero, subnormals, values near [max_float] and
    random bit patterns. *)

val channel : Mx_util.Prng.t -> Mx_connect.Channel.t
(** One BRG arc with a dyadic bandwidth (so cross-level bandwidth sums
    are float-exact) and a standard transaction size; off-chip with
    probability 0.3. *)

val channels : Mx_util.Prng.t -> size:int -> Mx_connect.Channel.t list
(** Between 1 and [min 8 (size + 1)] channels. *)

val clusters : Mx_util.Prng.t -> size:int -> Mx_connect.Cluster.t list
(** A valid partial clustering of a random channel set: singleton
    clusters plus a few random same-boundary-class merges. *)

val workload : Mx_util.Prng.t -> size:int -> Mx_trace.Workload.t
(** A synthetic workload of 1..min 4 size regions across the pattern
    classes, with a trace of roughly [200 * size] accesses. *)

val cache : Mx_util.Prng.t -> Mx_mem.Params.cache
(** A valid cache geometry: power-of-two size (512B..16KB), line
    (16..64B) and associativity (clamped to the number of lines). *)

val repl_policy : Mx_util.Prng.t -> Mx_mem.Params.policy
(** One of {!Mx_mem.Params.all_policies}, uniformly. *)

val repl_geometry : Mx_util.Prng.t -> size:int -> Mx_mem.Params.cache
(** A tiny cache geometry for replacement-policy differential tests:
    1..8 ways (power of two, growing with [size]), 1..4 sets, 16 B
    lines, default policy (callers re-policy with a record update). *)

val repl_stream :
  Mx_util.Prng.t -> size:int -> geometry:Mx_mem.Params.cache ->
  (int * bool) list
(** An [(addr, write)] access stream over a line universe of twice the
    geometry's capacity (so reuse and conflict are both frequent);
    roughly [8 * size] to [16 * size] accesses. *)

val mem_arch_spec :
  Mx_util.Prng.t -> Mx_trace.Workload.t -> label:string -> Mx_mem.Mem_arch.t
(** A random valid memory architecture for the workload (cache
    geometry, optional stream buffer / LLDMA / scratchpad bound by
    region hints; never an L2, victim or write buffer — {!sim_arch}
    draws those).  The same generator state builds the same structure
    under any [label] — used by the fingerprint relabeling suite. *)

val mem_arch : Mx_util.Prng.t -> Mx_trace.Workload.t -> Mx_mem.Mem_arch.t
(** [mem_arch_spec ~label:"gen"]. *)

val sim_arch : Mx_util.Prng.t -> Mx_trace.Workload.t -> Mx_mem.Mem_arch.t
(** A random valid architecture over everything the timing model
    covers: an L1 of any policy with an optional L2 and victim buffer,
    or no cache with an optional write buffer, plus optional stream
    buffer, LLDMA and scratchpad bound by region hints.  One case in
    ten has a deep stream buffer with 4-byte lines that also serves the
    randomly accessed regions: its many distinct transfer sizes push
    recorded outcome ids past one byte. *)

val window : Mx_util.Prng.t -> int * int
(** Random [(on, off)] sampling windows, [on] in [1..64] and [off] in
    [0..199]. *)

val sample : Mx_util.Prng.t -> (int * int) option
(** No sampling (three cases in ten), or a {!window}. *)

val cpu_model : Mx_util.Prng.t -> Mx_sim.Cycle_sim.cpu_model
(** [Blocking], or [Overlap] with 1 to 4 MSHRs. *)

val conn :
  Mx_util.Prng.t -> Mx_connect.Brg.t -> Mx_connect.Conn_arch.t
(** A random feasible connectivity for the BRG, drawn from the
    enumerated clustering levels over a small component library — so
    shared (contended) buses and dedicated links both occur. *)

type pipeline = {
  p_workload : Mx_trace.Workload.t;
  p_arch : Mx_mem.Mem_arch.t;
  p_profile : Mx_mem.Mem_sim.stats;
  p_brg : Mx_connect.Brg.t;
}

val pipeline : Mx_util.Prng.t -> size:int -> pipeline
(** Workload + architecture + module-level profile + BRG, the common
    prefix of the simulation and evaluation suites. *)

val sim_pipeline : Mx_util.Prng.t -> size:int -> pipeline
(** {!pipeline} over a {!sim_arch} architecture. *)
