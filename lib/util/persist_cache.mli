(** An on-disk, fingerprint-keyed result store: the persistent tier
    under the in-memory {!Memo_cache}.

    Values are arbitrary byte strings keyed by canonical fingerprint
    strings, stored in {e append-only segment files} under one
    directory.  A full in-memory index (key → segment/offset) is
    rebuilt on {!open_dir} by scanning the segments; values are read
    back from disk on {!get}.

    {b Durability discipline.}  Every record carries an MD5 digest over
    its framing and payload; a record is {e committed} once its bytes
    have reached the segment file (each {!put} flushes the channel;
    {!sync} and {!close} additionally [fsync]).  On open, a segment is
    scanned record by record and the scan stops at the first record
    that fails framing or digest verification — a torn tail from a
    crash mid-append loses at most the record being written, never a
    committed prefix, and a corrupt record is never served.  New
    segment files are created with the write-temp + rename discipline
    of {!Snapshot}, so a crash during creation never leaves a
    half-written segment header behind.

    {b Revision stamping.}  Each segment header carries the
    [~revision] string it was written under.  Opening a directory with
    a different revision silently ignores the stale segments (counted
    in {!stats}), so results computed by an older model self-invalidate
    without any deletion pass.

    {b Concurrency.}  A handle is mutex-guarded, so {!Task_pool}
    domains can share it.  Handles in one process or several may write
    to one directory at once: each appends only to segments it created,
    claiming each name with [Unix.link], so no record is lost and a
    reopen reads every writer's committed records.  A handle reads what
    was committed when it opened, and its own writes.

    {b Counters.}  When [metrics_prefix] is given, traffic is recorded
    into {!Metrics.global} as [<prefix>.hits], [<prefix>.misses] and
    [<prefix>.writes].  Give the prefix a [cache.] segment: disk-tier
    traffic depends on what earlier runs left behind and is exempt
    from the determinism contract, exactly like the memory tier. *)

type t

type stats = {
  entries : int;  (** distinct keys resident in the index *)
  segments : int;  (** live (same-revision) segment files *)
  appended : int;  (** records written since {!open_dir} *)
  recovered : int;  (** records loaded from disk at {!open_dir} *)
  skipped_records : int;
      (** torn/corrupt records (and their segment tails) skipped at open *)
  stale_segments : int;  (** segments ignored for carrying another revision *)
  get_hits : int;
  get_misses : int;
}

val open_dir :
  ?segment_max_bytes:int ->
  ?metrics_prefix:string ->
  revision:string ->
  dir:string ->
  unit ->
  (t, string) result
(** Open (creating the directory if needed) the store rooted at [dir].
    The active segment rotates once it exceeds [segment_max_bytes]
    (default 8 MiB); rotation seals the old file with an [fsync].
    [revision] must not contain newlines.  [Error] reports an unusable
    directory (permissions, not a directory, ...) — never a corrupt
    segment, which is a recoverable condition counted in {!stats}. *)

val get : t -> key:string -> string option
(** The most recently {!put} value under [key], reading it back from
    its segment file; [None] when the key is unknown (or was only
    present in stale or torn records). *)

val put : t -> key:string -> string -> unit
(** Append a record binding [key] to the value (last write wins) and
    flush it to the OS.  Keys and values are arbitrary bytes.
    @raise Sys_error when the underlying file I/O fails. *)

val mem : t -> key:string -> bool
(** Index lookup only: no disk read, no counter traffic. *)

val sync : t -> unit
(** Flush and [fsync] the active segment — after this returns, every
    record {!put} so far survives a machine crash, not just a process
    crash. *)

val close : t -> unit
(** {!sync}, then close every file handle.  The store must not be used
    afterwards; double-close is harmless. *)

val length : t -> int
(** Distinct keys resident in the index. *)

val stats : t -> stats

(** Fault-injection hooks for the crash-recovery test harness.  Never
    used by production code paths. *)
module Testing : sig
  exception Injected_crash of string
  (** Raised by the faults below at their trigger point. *)

  type fault =
    | Torn_write of int
        (** the next {!put} writes only the first [n] bytes of the
            record, flushes them, then raises {!Injected_crash} — a
            crash mid-append *)
    | Corrupt_record
        (** the next {!put} flips one payload byte {e after} the digest
            was computed: the record lands on disk whole but fails CRC
            verification on the next open *)
    | Fail_fsync
        (** the next [fsync] (from {!sync}, {!close} or rotation)
            raises {!Injected_crash} after the channel flush *)

  val set_fault : t -> fault option -> unit
  (** Arm (or clear) a one-shot fault on the store. *)

  val segment_files : t -> string list
  (** Absolute paths of the live segment files, oldest first (the last
      one is the active segment). *)

  val truncate_file : path:string -> at:int -> unit
  (** Truncate a file to [at] bytes — simulates a crash that tore the
      tail off a segment. *)

  val flip_byte : path:string -> at:int -> unit
  (** XOR the byte at offset [at] with 0xFF — simulates media
      corruption under a committed record. *)

  val open_unverified :
    revision:string -> dir:string -> unit -> (t, string) result
  (** {!open_dir} with digest verification disabled: corrupt records
      are loaded and served as-is.  Exists only so the [persist-selftest]
      check suite can prove the differential harness catches a broken
      store; never use it for real data. *)
end
