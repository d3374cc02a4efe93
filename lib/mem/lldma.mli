(** Linked-list / self-indirect DMA module.

    Models the paper's DMA-like memory module that "brings predictable,
    well-known data structures (such as lists) closer to the CPU": a
    hardware pointer-chaser that dereferences the structure's own link
    fields ahead of the CPU.

    Timing model (causal, trace-driven): while the CPU is inside a
    traversal the DMA stays ahead, because each element it fetches
    contains the pointer to the next one.  The module therefore scores a
    {e hit} when the access continues a chase — i.e. the previous access
    to the DMA-mapped region happened at most [ll_max_gap] CPU accesses
    ago.  A larger gap means the CPU left the traversal (a new chain is
    starting, as at each LZW code or each fresh list), which the DMA
    cannot predict: that access misses and restarts the chase.  Writes
    during a chase (list construction) hit the element buffer and drain
    to DRAM as bursts.

    The module keeps only its chase state (the last access index and
    whether a chase is on) and counts nothing: {!access} returns whether
    each access hit, and {!Mem_sim} counts the outcomes. *)

type t

type result = {
  hit : bool;
  fetched_elems : int;  (** elements pulled from DRAM by this access *)
}

val create : Params.lldma -> t
(** @raise Invalid_argument on non-positive geometry. *)

val params : t -> Params.lldma

val access : t -> now:int -> write:bool -> result
(** [now] is the global CPU access index, used to measure the gap since
    the previous access to this module.  Must be non-decreasing;
    @raise Invalid_argument when time goes backwards. *)
