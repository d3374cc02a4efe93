(** Victim cache (Jouppi): a small fully-associative buffer holding
    lines recently evicted from the main cache, recovering conflict
    misses without an off-chip round trip.

    Policy implemented here: clean evictions enter the buffer (dirty
    lines are written back immediately, as in the base design); on a
    main-cache miss the buffer is probed, and a hit returns the line to
    the cache at [v_latency] extra cycles with no DRAM traffic.  A hit
    removes its line rather than promoting it, so the entry a full
    buffer displaces is always its oldest insertion.

    The buffer keeps only its lines and their insertion order and
    counts nothing: each {!recover} returns whether it hit, and
    {!Mem_sim} counts those results. *)

type t

val create : Params.victim -> t
(** @raise Invalid_argument via {!Params.validate_victim}. *)

val params : t -> Params.victim

val recover : t -> evicted:int -> line:int -> bool
(** One main-cache miss, in one scan of the buffer.  First the clean
    line the miss [evicted] (its global line number, or [-1] for none)
    enters the buffer: it takes the first empty slot, or displaces the
    oldest insertion when the buffer is full (the lowest slot on ties).
    Then the buffer is probed for the missed [line]: a hit removes the
    line, which moves back into the main cache, and returns [true].
    When the insertion displaced [line] itself, the probe misses.

    It relies on what a main cache's misses guarantee: the buffer and
    the cache hold disjoint lines (an evicted line was resident in the
    cache, the missed one was not), so the buffer never holds a line
    twice and [evicted] is never [line]. *)
