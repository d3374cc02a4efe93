(** A recorded memory-reference stream.

    Stored as a compact struct-of-arrays (one [int] of address and one
    [int] of packed metadata per access) so that multi-hundred-thousand
    access traces iterate quickly during design-space exploration, where
    the same trace is replayed through thousands of candidate
    architectures. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int

val add : t -> addr:int -> size:int -> kind:Access.kind -> region:int -> unit
(** Append one access.  @raise Invalid_argument on a negative address,
    an unsupported access width (see {!Access.size_code}) or a negative
    region id. *)

(** {2 Packed-meta codec}

    One access is stored as two native ints: the byte address and a
    packed metadata word [region lsl 3 lor size_code lsl 1 lor kind].
    The codec is exposed so the binary trace format ({!Trace_io}) and
    the chunked reader ({!Trace_stream}) can move packed words without
    re-encoding per access. *)

val pack_meta : size:int -> kind:Access.kind -> region:int -> int
(** @raise Invalid_argument as for {!add}. *)

val meta_size : int -> int
val meta_kind : int -> Access.kind
val meta_region : int -> int

val add_packed : t -> addr:int -> meta:int -> unit
(** Append one access given an already-packed metadata word.  Unlike
    {!add} it checks nothing: the caller vouches for a non-negative
    address and a word from {!pack_meta}. *)

val backing : t -> int array * int array
(** The underlying (addresses, metas) arrays — only the first
    {!length} entries are meaningful, and callers must not mutate
    them.  Lets {!Trace_stream.of_trace} expose a trace chunk-by-chunk
    without copying. *)

val get : t -> int -> Access.t
(** Random access; @raise Invalid_argument out of bounds. *)

val iter : t -> f:(Access.t -> unit) -> unit
(** Record-building iteration — convenient, allocates one record per
    access; use {!iter_packed} in hot paths. *)

val iter_packed :
  t -> f:(addr:int -> size:int -> kind:Access.kind -> region:int -> unit) -> unit
(** Allocation-free iteration over the whole trace. *)

val iteri_packed :
  t ->
  f:(int -> addr:int -> size:int -> kind:Access.kind -> region:int -> unit) ->
  unit
(** Like {!iter_packed} with the access index, used by the time-sampling
    estimator to window the trace. *)

val sub : t -> pos:int -> len:int -> t
(** Copy of a window of the trace.  @raise Invalid_argument when the
    window falls outside the trace. *)

val content_hash : t -> int
(** Non-negative FNV-1a hash of the packed access stream (address and
    metadata of every access, in order).  O(length); deterministic
    across runs and domains.  Any single-access change — address, size,
    kind, region or position — changes the hash with overwhelming
    probability. *)

val hash_basis : int
(** FNV-1a offset basis of {!content_hash}. *)

val hash_step : int -> addr:int -> meta:int -> int
(** Fold one packed access into a running {!content_hash}.  Folding
    every access of a trace from {!hash_basis} and finishing with
    {!hash_finish} is exactly [content_hash] — the contract that lets a
    streamed source ({!Trace_stream.content_hash}) hash to the same
    value as the materialised trace. *)

val hash_finish : int -> int
(** Clamp a running hash to the non-negative range. *)

val total_bytes : t -> int
(** Sum of access widths — the raw CPU-side traffic. *)
