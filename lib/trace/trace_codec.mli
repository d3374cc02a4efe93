(** Byte-level codec of the memorex binary trace format (v2).

    Shared by {!Trace_io} (whole-file save/load) and {!Trace_stream}
    (chunk-at-a-time reading).  See the implementation header and
    DESIGN.md §11 for the exact layout:

    {v
    "MXTB" v2 | header | chunk* | footer (per-chunk len+count) | trailer
    v}

    Every chunk is independently decodable — the per-region zig-zag
    delta state resets to the region bases at each chunk boundary — so
    a reader holding the footer index can fetch any chunk with one
    seek.  Records are run-length escaped: a repeated (meta, stride)
    pair is stored once with a repeat count. *)

exception Corrupt of string
(** Malformed or truncated binary input.  {!Trace_io} maps this to its
    public [Parse_error]. *)

val magic : string
(** ["MXTB"] — the file's first four bytes. *)

val trailer_magic : string
val version : int

val trailer_bytes : int
(** Fixed size of the trailer (u64-LE footer offset + magic). *)

val default_chunk_cap : int
(** 1024 accesses per chunk.  Small enough that seek-mode sampling
    (1/9 on/off windows of 1000/9000) skips most chunks, large enough
    that the footer stays negligible. *)

(** {2 Primitive readers/writers} *)

type reader = {
  next_byte : unit -> int;  (** @raise Corrupt at end of input *)
  consumed : int ref;  (** bytes read so far *)
}

val reader_of_string : ?pos:int -> string -> reader
val reader_of_channel : in_channel -> reader

val write_varint : Buffer.t -> int -> unit
val write_zigzag : Buffer.t -> int -> unit
val read_varint : reader -> int
val read_zigzag : reader -> int

(** {2 Header} *)

type header = {
  h_name : string;
  h_cpu_ops : int;
  h_regions : Region.t list;  (** sorted by id, ids contiguous from 0 *)
  h_slots : int;  (** delta-state slots: 1 + the largest region id *)
  h_accesses : int;
  h_chunk_cap : int;
}

val encode_header : Buffer.t -> header -> unit
(** Writes magic and version too. *)

val decode_header : reader -> header
(** The reader must be positioned just after the magic/version bytes
    (see {!check_magic}). *)

val check_magic : reader -> unit
(** Consume and validate the 5 magic/version bytes. *)

val bases_of_header : header -> int array
(** The pristine per-region delta state (region bases; never empty). *)

(** {2 Chunks} *)

val encode_chunk :
  Buffer.t ->
  bases:int array ->
  addrs:int array ->
  metas:int array ->
  pos:int ->
  len:int ->
  unit
(** Encode accesses [pos .. pos+len-1] of a packed trace as one chunk.
    @raise Invalid_argument on a region id outside [bases]. *)

val decode_chunk :
  reader ->
  bases:int array ->
  count:int ->
  into_addrs:int array ->
  into_metas:int array ->
  unit
(** Decode exactly [count] accesses into the target arrays (indices
    [0 .. count-1]).  @raise Corrupt on malformed records, including
    one that decodes to a negative address. *)

(** {2 Footer and trailer} *)

type footer = {
  f_lens : int array;  (** encoded byte length of each chunk *)
  f_counts : int array;  (** access count of each chunk *)
}

val encode_footer : Buffer.t -> footer -> unit
val decode_footer : reader -> footer

val encode_trailer : Buffer.t -> footer_offset:int -> unit

val decode_trailer : string -> int
(** [decode_trailer s] takes the file's last {!trailer_bytes} bytes and
    returns the footer offset.  @raise Corrupt on a bad magic — the
    truncation check. *)
