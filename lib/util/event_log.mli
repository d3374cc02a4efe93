(** Decision-provenance event log: {e why} the funnel kept, pruned or
    refined each design, not just how much work each stage did.

    Where {!Metrics} aggregates (counters, histograms, spans), the
    event log records the individual decisions of an exploration as a
    bounded stream of structured events: every cluster merge, every
    enumerated assignment and infeasible level, and the full lifecycle
    of every design — created, evaluated (with fidelity and cache
    provenance), pruned-dominated-by / thinned / kept, refined,
    selected.  The [conex explain] subcommand reconstructs the funnel
    from a saved log.

    {b Cost discipline.}  Like the metrics registry, the ambient log
    ({!global}) is disabled at program start; every {!emit} begins with
    one atomic load and returns immediately when off.  Callers that
    build attribute lists should guard with {!is_on} so a disabled log
    allocates nothing.

    {b Bounding.}  The log is a ring of at most [capacity] events: when
    full, the oldest event is dropped (and counted in {!dropped}), so
    the latest — terminal — decisions always survive.  An output
    channel ({!set_output}) gets every event as it is emitted, and the
    ring can then be switched off.

    {b Sequencing and determinism.}  Every event carries a [(stage,
    seq)] pair: [seq] is a stable integer sequence {e per logical
    stage}, assigned at emission (or supplied explicitly by callers
    that emit from parallel workers and know the deterministic index of
    their work item).  Wall-clock offsets ([t_ms]) are informational
    only and never part of the canonical form.  The determinism
    contract extends the {!Metrics} one: after {!canonical_sort}, the
    deterministic subset (every event whose name contains no [sched.]
    or [cache.] segment, {!schedule_dependent}) of a [jobs=1] and a
    [jobs=N] run of the same exploration is byte-identical
    ({!canonical_dump}).  Cache-provenance events ([eval.cache.*]) are
    exempt because hit/miss patterns depend on cross-domain timing.

    {b Domain safety.}  Events may be emitted from any domain; the ring
    and the per-stage sequence counters live behind one mutex (emission
    is per-decision — per design, per merge — never per access). *)

type value = Str of string | Int of int | Float of float | Bool of bool

type event = {
  stage : string;  (** logical funnel stage, e.g. ["phase1"] *)
  seq : int;  (** stable sequence within [stage] *)
  name : string;  (** event kind, e.g. ["design.kept"] *)
  attrs : (string * value) list;  (** payload, in emission order *)
  t_ms : float;
      (** milliseconds since the log's creation or last {!reset};
          informational only, excluded from the canonical form *)
}

type t

val default_capacity : int
(** 1,048,576 events — comfortably above any bundled exploration. *)

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** Fresh log, disabled unless [enabled:true].  [capacity] (default
    {!default_capacity}, clamped to at least 1) bounds resident
    events. *)

val global : t
(** The ambient log all built-in instrumentation emits to.  Disabled at
    program start. *)

val set_enabled : t -> bool -> unit
val is_on : t -> bool

val reset : t -> unit
(** Drop every event, zero the per-stage sequences, the drop count and
    the {!written} count, and restart the [t_ms] clock (the enabled flag
    and an attached output are left as they are). *)

val set_output : t -> ?keep:bool -> out_channel option -> unit
(** [set_output t (Some oc)] writes each event to [oc] as one
    {!line_of_event} line under the log's mutex as it is emitted, so a
    file loses nothing to the ring bound and a run that dies leaves a
    prefix {!load_jsonl} reads; [~keep:false] (default [true]) keeps
    no event in the ring meanwhile.  [None] detaches the channel, which
    the caller closes. *)

val written : t -> int
(** Lines written to the attached outputs since the last {!reset}. *)

(** {1 Emission} *)

val emit : t -> stage:string -> ?seq:int -> string -> (string * value) list -> unit
(** [emit t ~stage name attrs] appends one event.  Without [?seq] the
    stage's next sequence number is assigned (serial emitters); pass
    [?seq] explicitly when emitting from parallel workers that know
    their deterministic item index.  No-op while the log is
    disabled. *)

(** {1 Reading} *)

val events : t -> event list
(** Resident events, oldest first (emission order). *)

val length : t -> int
val dropped : t -> int
(** Events lost to the ring bound since the last {!reset}. *)

(** {1 The determinism contract} *)

val schedule_dependent : event -> bool
(** {!Metrics.schedule_dependent} applied to the event's name — the
    subset allowed to differ between jobs levels. *)

val canonical_sort : event list -> event list
(** Stable sort by [(stage, seq, name)]. *)

val canonical_dump : event list -> string
(** JSONL rendering of the comparable subset — schedule-dependent
    events removed, then {!canonical_sort} — timestamps stripped,
    byte-identical between [jobs=1] and [jobs=N] runs of the same
    exploration (enforced by the test suite). *)

(** {1 JSONL exporter / importer} *)

val line_of_event : ?time:bool -> event -> string
(** One JSON object, no trailing newline:
    {v {"stage": s, "seq": n, "t_ms": x, "event": s, "attrs": {...}} v}
    [time:false] omits ["t_ms"] (the canonical form). *)

val to_jsonl : t -> string
(** Every resident event in emission order, one {!line_of_event} per
    line, each terminated by a newline. *)

val event_of_line : string -> (event, string) result
(** Parse one JSONL line back into an event (inverse of
    {!line_of_event}; a missing ["t_ms"] reads as [0.]). *)

type loaded = {
  events : event list;
  truncated : bool;
      (** the file's final non-blank line failed to parse and was
          dropped — the tail of a run that died mid-write *)
}

val load_jsonl : path:string -> (loaded, string) result
(** Read a file of JSONL events; blank lines are skipped.  A parse
    failure on the {e final} non-blank line is tolerated (the event is
    dropped and [truncated] is reported true) so the log of a run killed
    mid-write stays readable; a failure on any earlier line is an
    [Error], as is an I/O problem — both diagnostics carry the line
    number. *)

(** {1 Chrome trace exporter} *)

val to_chrome_trace : snapshot:Metrics.snapshot -> event list -> string
(** A Chrome trace-event JSON document (loadable in Perfetto or
    [chrome://tracing]): the snapshot's span forest becomes complete
    ([ph:"X"]) slices positioned by their start offsets, and each event
    becomes an instant ([ph:"i"]) with its attributes as [args].  Both
    clocks are relative to their registry's reset, so resetting metrics
    and events together (as the CLI does) aligns them. *)
