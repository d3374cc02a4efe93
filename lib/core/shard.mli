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

    Shards live in one process: they are planned on the calling domain
    and hold the level's live clusters and components.  A shard's
    {!fingerprint} is a structural key built from
    [Workload.fingerprint] and [Mem_arch.fingerprint], identical across
    runs; events and metrics name shards by it. *)

type t
(** One planned shard, ready to enumerate. *)

val fingerprint : t -> string
(** Canonical structural key of a shard (workload and architecture
    fingerprints, level, prefix, uncapped space and cap; not the
    architecture's label): equal fingerprints enumerate equal design
    slices. *)

val cap : t -> int
(** The designs this shard emits toward its level's cap, at least 1. *)

val plan :
  ?shards:int ->
  ?max_designs_per_level:int ->
  workload_fp:string ->
  arch_label:string ->
  arch_fp:string ->
  onchip:Mx_connect.Component.t list ->
  offchip:Mx_connect.Component.t list ->
  Mx_connect.Cluster.t list list ->
  t list
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

    Counts [assign.levels] and records each level's accounting through
    {!Mx_connect.Assign.level}, as {!Mx_connect.Assign.enumerate_levels}
    does, then emits one [shard.planned] event per shard and the
    [shard.planned] counter — all on the calling domain, so the
    planning record is deterministic.

    @raise Invalid_argument if [shards < 1] or
    [max_designs_per_level < 0]. *)

val clusters :
  t -> (Mx_connect.Cluster.t * Mx_connect.Component.t array) array
(** The level's clusters in order, each with its component choices: a
    prefix cluster has its one bound component, every other cluster its
    feasible components in library order. *)

val iter : t -> (int -> int array -> unit) -> unit
(** [iter t f] calls [f i v] for the shard's assignments in enumeration
    order, [i] from 0 to [cap - 1]: [v.(j)] indexes cluster [j]'s
    choices in {!clusters}.  [v] is one array that [iter] advances in
    place — [f] must not keep it.  Silent: no events, no metrics — safe
    to run on pool workers; bookkeeping happens at plan time and at
    ordered commit time. *)

val vector : t -> int -> int array
(** [vector t i] is a fresh copy of the [i]-th vector {!iter} passes. *)

val connectivity : t -> int array -> Mx_connect.Conn_arch.t
(** The connectivity that binds every cluster to its chosen component. *)

val enumerate : t -> Mx_connect.Conn_arch.t list
(** Every assignment of the shard as a connectivity: {!connectivity}
    over {!iter}. *)
