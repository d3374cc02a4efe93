(** Set-associative write-back, write-allocate cache with a pluggable
    replacement policy ({!Params.cache.c_policy}, true LRU by default).

    The workhorse on-chip module of every traditional architecture in
    the paper (designs [a]/[b] of Fig. 6 are cache-only).  The simulator
    is state-accurate: hits, misses, fills and dirty evictions are all
    derived from the actual tag array, so miss ratios respond correctly
    to size, line, associativity and policy changes.  It keeps only the
    state that decides an access's outcome (tags, dirty bits, each
    set's order) and counts nothing: a caller counts the outcomes it
    reads, as {!Mem_sim} does for every profile.

    {b Victim tie-breaking contract} (load-bearing for determinism, and
    pinned by regression tests):

    - a set that is not yet full evicts nothing: a miss claims an
      invalid way;
    - [True_lru] and [Fifo] keep each set's lines in order in its ways,
      most recent (resp. newest fill) first, with the invalid ways at
      the tail.  A miss evicts the last way, the least recently used
      line (resp. the oldest fill), shifts the set down one and fills
      the front; a [True_lru] hit moves its line to the front, a [Fifo]
      hit moves nothing.  A line's dirty bit moves with it;
    - the bit/age policies claim invalid ways in ascending way-index
      order; only a set whose every way holds a valid line asks
      {!Replacement.victim} for the eviction way, and every such policy
      breaks its remaining ties toward the lowest way index.

    Together these make the full hit/miss/evict sequence a pure
    function of the access stream and the cache parameters.

    {b Indexing.}  {!Params.validate_cache} makes size and line powers
    of two, and an associativity that divides a power-of-two line count
    is one too, so the set count is a power of two.  A lookup therefore
    finds an address's line, set and tag by shift and mask, with no
    division, and rebuilds an evicted line's number the same way.  The
    shifts equal the divisions because addresses are non-negative,
    which {!lookup} checks. *)

type t

type result = {
  hit : bool;
  fill : bool;  (** a line was fetched from the next level *)
  writeback : bool;  (** a dirty line was evicted to the next level *)
  evicted_line : int option;
      (** global line number of the displaced line, if any (feeds the
          victim cache) *)
}

val create : Params.cache -> t
(** @raise Invalid_argument via {!Params.validate_cache}. *)

val params : t -> Params.cache

val access : t -> addr:int -> write:bool -> result
(** One CPU reference.  Aligned internally to the line size.  A
    wrapper over {!lookup} that decodes its code into a [result].
    @raise Invalid_argument on a negative address. *)

val lookup : t -> addr:int -> write:bool -> int
(** The cache's one lookup, as {!access} but allocating nothing: the
    outcome comes back as an int code.

    - {!hit} on a hit;
    - {!cold_fill} on a miss that filled an invalid way;
    - otherwise [(line lsl 1) lor wb], for a miss that evicted global
      line [line], with [wb = 1] when that line was dirty and is
      written back.  This code is non-negative.

    {!evicted} and {!dirty} decode it.
    @raise Invalid_argument on a negative address. *)

val hit : int
(** [-1]: the lookup code of a hit. *)

val cold_fill : int
(** [-2]: the lookup code of a miss that displaced no line. *)

val evicted : int -> int
(** The global line a lookup code's miss evicted; [-1] for {!hit} and
    {!cold_fill}. *)

val dirty : int -> bool
(** Whether a lookup code's evicted line is written back. *)
