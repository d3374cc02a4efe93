(** Posted-write buffer: absorbs CPU-side stores to off-chip memory so
    the CPU does not stall, draining to DRAM in the background.

    Line-granular coalescing slots; one slot drains every [wb_drain]
    CPU accesses.  Reads that hit a buffered line are forwarded from
    the buffer.  When all slots are full an incoming store stalls
    (behaves like an unbuffered write).

    The buffer keeps only its slots and drain clock and counts nothing:
    {!write} returns each store's outcome, and {!Mem_sim} counts the
    stalls. *)

type t

val create : Params.write_buffer -> t
(** @raise Invalid_argument via {!Params.validate_write_buffer}. *)

val params : t -> Params.write_buffer

val write : t -> now:int -> line:int -> [ `Absorbed | `Coalesced | `Stall ]
(** Post a store to a line at access-index [now].  [`Coalesced] means
    the line already had a slot; [`Absorbed] allocated a new slot;
    [`Stall] means the buffer was full. *)

val read_forward : t -> now:int -> line:int -> bool
(** Does a load hit a buffered (not-yet-drained) line? *)

val occupancy : t -> now:int -> int
(** Slots still occupied at access-index [now] (after draining). *)
