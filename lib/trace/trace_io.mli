(** Workload (trace + region table) persistence.

    Two on-disk formats share one loader:

    {b Text (v1)} — a simple line-oriented format so users can bring
    traces from external tools (or ship a captured trace with a bug
    report):

    {v
    # memorex-trace v1
    workload <name>
    cpu_ops <count>
    region <id> <name> <base-hex> <size> <elem_size> <pattern>
    ...
    trace <count>
    R <addr-hex> <size> <region-id>
    W <addr-hex> <size> <region-id>
    ...
    v}

    {b Binary (v2, "MXTB")} — the compact chunked format of
    {!Trace_codec} (delta/run-length encoded, with a footer index),
    ~10–30× smaller than text and readable chunk-at-a-time through
    {!open_stream} without materialising the trace.  [load] and
    [of_string] detect the format from the first bytes. *)

exception Parse_error of { line : int; message : string }
(** [line] is 1-based for text input (stable across CRLF line endings
    and trailing blank lines) and 0 for binary input, where the message
    describes the corruption instead. *)

type format = Text | Binary

val save : ?format:format -> ?chunk_cap:int -> Workload.t -> path:string -> unit
(** Write a workload to [path] (overwrites).  [format] defaults to
    [Text]; [chunk_cap] (binary only) defaults to
    {!Trace_codec.default_chunk_cap}. *)

val load : path:string -> Workload.t
(** Load either format, detected by content.  @raise Parse_error on
    malformed input — including a negative address, and truncated
    binary files, which fail with a trailer/layout message rather than
    an escaping [End_of_file];
    @raise Sys_error on I/O failures. *)

val open_stream : path:string -> Workload.streamed
(** Open a trace file as a streamed workload.  Binary files are read
    chunk-at-a-time — only the header and footer index are parsed up
    front, and {!Trace_stream.get_chunk} seeks directly to any chunk —
    so a multi-gigabyte trace simulates in constant memory.  Text files
    have no chunk index; they are loaded whole and wrapped via
    {!Trace_stream.of_trace}, preserving the uniform interface.

    The returned stream owns the file handle; {!Trace_stream.close} it
    when done.  @raise Parse_error on malformed input (chunk corruption
    is reported lazily, by the fetch that hits it). *)

val to_string : Workload.t -> string
(** Text serialisation (used by [save ~format:Text] and the tests). *)

val of_string : string -> Workload.t
(** Parse either format, detected by content.
    @raise Parse_error as for [load]. *)

val to_binary_string : ?chunk_cap:int -> Workload.t -> string
(** Binary serialisation.  @raise Invalid_argument on a non-positive
    [chunk_cap]. *)

val of_binary_string : string -> Workload.t
(** @raise Parse_error as for [load]. *)
