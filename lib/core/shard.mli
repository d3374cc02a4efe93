(** Design-space shards: the unit of work for sharded exploration.

    A shard is one slice of Phase I's connectivity enumeration for a
    single memory architecture — one clustering level restricted to a
    fixed {e assignment prefix} (the first [k] clusters bound to named
    components).  A shard's assignments are {e choice vectors} — one
    component index per cluster of the level — walked in odometer order
    (the last cluster turning fastest) up to the shard's cap; Phase I
    estimates each vector from an {!Mx_sim.Estimator.level} over
    {!clusters} and materialises a connectivity only where it needs
    one.  Concatenating the enumerations of a level's shards in plan
    order reproduces the monolithic [Assign.enumerate] over that level
    {e exactly} — same designs, same order, same cap — which is what
    makes the final pareto front byte-stable in the shard count.

    Shards carry a portable {!descriptor} with a structural
    {!fingerprint} built from the PR 3 fingerprint scheme
    ([Workload.fingerprint], [Mem_arch.fingerprint]), so they are
    restartable, memo-cache-friendly and identical across runs; the
    line-based wire format ({!to_line} / {!of_line} / {!save} /
    {!load}) is what an external worker process would consume. *)

type descriptor = {
  workload_fp : string;  (** [Mx_trace.Workload.fingerprint] *)
  arch_label : string;   (** human label of the memory architecture *)
  arch_fp : string;      (** [Mx_mem.Mem_arch.fingerprint] *)
  level : int;           (** clustering-level index, 0-based *)
  prefix : string list;  (** component names bound to the first clusters *)
  space : int;           (** uncapped enumeration size (saturating) *)
  cap : int;             (** designs this shard emits toward the level cap *)
}

val fingerprint : descriptor -> string
(** Canonical structural key of a shard (excludes the label, like
    [Mem_arch.fingerprint]): equal fingerprints enumerate equal design
    slices. *)

val to_line : descriptor -> string
(** One-line, tab-separated serialization (fields never contain tabs). *)

val of_line : string -> (descriptor, string) result
(** Parse {!to_line} output; validates field count, magic/version and
    integer ranges.  Context-dependent validation (do the fingerprints
    match the architecture at hand?) is {!resolve}'s job. *)

val save : path:string -> descriptor list -> unit
(** Write a queue of shards, one {!to_line} per line. *)

val load : path:string -> (descriptor list, string) result
(** Read a queue written by {!save}, skipping blank lines; the error
    carries [path:line:] context. *)

type resolved
(** A descriptor resolved against live clustering levels and component
    libraries — ready to enumerate. *)

val descriptor : resolved -> descriptor

val plan :
  ?shards:int ->
  ?max_designs_per_level:int ->
  workload_fp:string ->
  arch_label:string ->
  arch_fp:string ->
  onchip:Mx_connect.Component.t list ->
  offchip:Mx_connect.Component.t list ->
  Mx_connect.Cluster.t list list ->
  resolved list
(** [plan ~shards ~max_designs_per_level ... levels] partitions every
    clustering level of one architecture into up to [shards] (default
    1) prefix-shards: each level starts as a single empty-prefix shard
    and the largest shard (earliest on ties) is repeatedly split at its
    first multi-choice cluster, children replacing the parent in place,
    until the level has [shards] pieces or only singleton slices
    remain.  The per-level design cap then flows through the shards in
    plan order, so each shard's [cap] is exactly the number of designs
    the monolithic enumeration would take from its slice — no shard
    enumerates a design the merge would discard, and levels whose slice
    falls wholly beyond the cap produce no shards.

    Emits the same [assign.level] / [assign.level_infeasible] events
    and [assign.levels] / [assign.enumerated] / [assign.cap_pruned] /
    [assign.infeasible_levels] metrics as the monolithic enumeration
    (computed from the level's full space), plus one [shard.planned]
    event and the [shard.planned] counter — all on the calling domain,
    so the planning record is deterministic.

    @raise Invalid_argument if [shards < 1] or
    [max_designs_per_level < 0]. *)

val clusters :
  resolved -> (Mx_connect.Cluster.t * Mx_connect.Component.t array) array
(** The level's clusters in order, each with its component choices: a
    prefix cluster has its one bound component, every other cluster its
    feasible components in library order. *)

val iter : resolved -> (int -> int array -> unit) -> unit
(** [iter r f] calls [f i v] for the shard's assignments in enumeration
    order, [i] from 0 to [cap - 1]: [v.(j)] indexes cluster [j]'s
    choices in {!clusters}.  [v] is one array that [iter] advances in
    place — [f] must not keep it.  Silent: no events, no metrics — safe
    to run on pool workers; bookkeeping happens at plan time and at
    ordered commit time. *)

val vector : resolved -> int -> int array
(** [vector r i] is a fresh copy of the [i]-th vector {!iter} passes. *)

val connectivity : resolved -> int array -> Mx_connect.Conn_arch.t
(** The connectivity that binds every cluster to its chosen component. *)

val enumerate : resolved -> Mx_connect.Conn_arch.t list
(** Every assignment of the shard as a connectivity: {!connectivity}
    over {!iter}. *)

val resolve :
  workload_fp:string ->
  arch_label:string ->
  arch_fp:string ->
  onchip:Mx_connect.Component.t list ->
  offchip:Mx_connect.Component.t list ->
  levels:Mx_connect.Cluster.t list list ->
  descriptor ->
  (resolved, string) result
(** Re-attach a (possibly deserialized) descriptor to live context —
    the inverse of {!descriptor}.  Fails with a human-readable reason
    when the workload/architecture fingerprints disagree, the level
    index is out of range, a prefix component is not feasible for its
    cluster, or the remaining space does not match the descriptor. *)
