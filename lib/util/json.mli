(** The one JSON value, reader and writer of the repo, shared by every
    document it produces: the event-log JSONL lines ({!Event_log}), the
    metrics document ({!Metrics.to_json}), the live status snapshots
    ({!Snapshot}), the run-ledger manifests ([Conex.Ledger]), the
    [conex serve] replies and the bench harness's [--json] output.
    Each emitter builds a {!t} and renders it with {!to_string}.

    {b Layout.}  One compact line: [{"k": v, "k2": w}] and [[a, b]],
    with [": "] and [", "] as separators and no newline anywhere
    (newlines inside strings are escaped).  Fields and items keep the
    order of the value.

    {b Numbers.}  {!number} prints a finite float as the shorter of
    [%.15g] and [%.17g] that reads back as the same float: integers
    print as integers, [0.1] as [0.1], and every finite value
    round-trips exactly, so [parse (to_string v) = v] for every value
    whose numbers are finite.  Non-finite numbers print as [null].

    The reader accepts exactly the JSON the writer produces (objects,
    arrays, strings, finite numbers, booleans, null, the standard
    escapes) — it is a round-trip companion, not a general validator.
    A [\uXXXX] escape takes exactly four hex digits and decodes to the
    code point's UTF-8 bytes; an escaped high surrogate followed by an
    escaped low one decodes to one code point, and a lone surrogate is
    a bad escape.
    Duplicate object keys are kept in document order; {!member} returns
    the first. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON document; [Error] carries a position-tagged
    diagnostic.  Trailing garbage after the document is an error. *)

(** {1 Accessors} — all total, [None]/default on shape mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val to_string_opt : t -> string option
val to_float_opt : t -> float option
val to_bool_opt : t -> bool option

val to_int_opt : t -> int option
(** [Num] values that are integral and safely representable. *)

(** {1 Writer} *)

val to_buffer : Buffer.t -> t -> unit
(** Append the value's compact rendering. *)

val to_string : t -> string
(** The value's compact rendering, with no trailing newline. *)

val int : int -> t
(** [Num] of an integer. *)

val escape : string -> string
(** Escape a string's content for inclusion between double quotes:
    ["\""], ["\\"], newline and the other control characters; every
    other byte is kept as is. *)

val number : float -> string
(** The number rule above: the shorter of [%.15g] and [%.17g] that
    reads back as the same float; inf/nan render as [null]. *)
