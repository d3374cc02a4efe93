(** Stream buffer: a small prefetching FIFO for sequential regions
    (Jouppi-style), one of the paper's "novel memory modules".

    Each of [sb_streams] slots tracks one sequential stream: a hit is an
    access falling in a line the slot has already prefetched; crossing
    into the next line triggers the next prefetch so a steady stream
    stays resident.  A non-sequential access (re)allocates the
    least-recently-used slot and refetches [sb_depth] lines.

    The buffer keeps only its streams' windows and their recency and
    counts nothing: {!access} returns whether each access hit, and
    {!Mem_sim} counts the outcomes. *)

type t

type result = {
  hit : bool;
  fetched_lines : int;  (** lines pulled from DRAM by this access *)
}

val create : Params.stream_buffer -> t
(** @raise Invalid_argument on non-positive geometry. *)

val params : t -> Params.stream_buffer
val access : t -> addr:int -> write:bool -> result
