(** Observability: counters, gauges, histograms and timed span trees.

    Every layer of the exploration stack reports into a {e registry} —
    normally the ambient {!global} one — which renders to human text
    ({!to_text}) or machine JSON ({!to_json}).  The registry is
    disabled by default: every recording operation first reads one
    atomic flag and returns, so instrumentation left in hot paths is
    near-free until someone opts in ([conex explore --metrics ...],
    [--trace-out], or the bench harness).

    {b Domain safety.}  All primitives may be called concurrently from
    any domain: counters are atomics, gauges and histograms update
    under the registry mutex, and spans nest per-domain (each domain
    owns its span stack; finished root spans merge into the registry).

    {b Determinism contract.}  Metric names containing the [sched.]
    segment (e.g. [task_pool.sched.dispatched]) are allowed to depend
    on scheduling — how work was split across domains, who ran what,
    elapsed time.  Every other counter must be {e schedule-invariant}:
    a serial ([jobs=1]) and a parallel ([jobs=N]) run of the same
    exploration must report identical values.  {!deterministic_counters}
    selects exactly that comparable subset; the test suite enforces the
    contract. *)

type t
(** A metrics registry. *)

val create : ?enabled:bool -> unit -> t
(** Fresh registry, disabled unless [enabled:true]. *)

val global : t
(** The ambient registry all built-in instrumentation reports to.
    Disabled at program start. *)

val set_enabled : t -> bool -> unit
val is_on : t -> bool

val reset : t -> unit
(** Drop every recorded metric and finished span (the enabled flag is
    left as is).  Call between runs that must be compared. *)

(** {1 Recording} — all no-ops while the registry is disabled. *)

val incr : t -> ?by:int -> string -> unit
(** Add [by] (default 1) to the named counter, creating it at 0. *)

val set_gauge : t -> string -> float -> unit
(** Set the named gauge (last write wins). *)

val observe : t -> ?unit_:string -> string -> float -> unit
(** Record one sample into the named histogram
    (count/sum/min/max/percentiles).  [unit_] labels the sample
    dimension, e.g. ["s"], ["cycles"], ["designs"]; it is fixed by the
    first observation.  Samples are retained for exact percentiles —
    observe per chunk or per shard, never per access. *)

val with_span : t -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] times [f ()] as a span.  Spans opened while
    another span is running {e on the same domain} become its children,
    forming a trace tree; a span with no parent is a root of the
    registry's trace forest.  The span is closed (and recorded) even
    when [f] raises. *)

(** {1 Reading} *)

type hist = {
  h_unit : string;
  count : int;
  sum : float;
  min_v : float;  (** +inf when [count = 0] *)
  max_v : float;  (** -inf when [count = 0] *)
  p50 : float;  (** nearest-rank percentiles over every recorded
                    sample; 0 when [count = 0] *)
  p95 : float;
  p99 : float;
}

type span = {
  span_name : string;
  start : float;
      (** open instant in seconds relative to the registry's creation or
          last {!reset} — together with [seconds] this is enough to
          rebuild the run's timeline (e.g. as a Chrome trace) *)
  seconds : float;  (** wall-clock duration *)
  children : span list;  (** in open order *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
  histograms : (string * hist) list;  (** sorted by name *)
  spans : span list;  (** roots, in completion order *)
}

val snapshot : t -> snapshot
(** Consistent copy of everything recorded so far.  Spans still open at
    snapshot time are not included. *)

val counter_value : t -> string -> int
(** Current value of a counter; 0 when it was never incremented. *)

val has_segment : string -> string -> bool
(** [has_segment needle name]: [needle] (which must end with ['.'])
    occurs in [name] at the start or right after a dot — so
    ["sched."] matches [task_pool.sched.steal] but not [resched.x]. *)

val schedule_dependent : string -> bool
(** The one determinism-exemption rule: whether a metric or event name
    contains a [sched.] or [cache.] segment, i.e. may differ between
    jobs levels. *)

val deterministic_counters : snapshot -> (string * int) list
(** The counters that are not {!schedule_dependent} — the subset
    required to be identical between serial and parallel runs.
    [cache.] counters are excluded because once a result cache
    overflows its capacity, which entry is evicted (and therefore the
    later hit/miss pattern) depends on cross-domain lookup order. *)

val to_text : t -> string
(** Human-readable rendering: counters, gauges, histograms, then the
    span forest indented two spaces per level. *)

val to_json_value : t -> Json.t
(** The registry as one JSON object:
    {v
    {"counters": {"name": int, ...},
     "gauges": {"name": float, ...},
     "histograms": {"name": {"unit": s, "count": n, "sum": x,
                             "min": x, "max": x, "mean": x,
                             "p50": x, "p95": x, "p99": x}, ...},
     "spans": [{"name": s, "start": x, "seconds": x,
                "children": [...]}, ...]}
    v}
    Keys are sorted; numbers follow {!Json.number} (exact, inf/nan as
    [null]). *)

val to_json : t -> string
(** {!to_json_value} rendered by {!Json.to_string}: one line, ended by
    a newline. *)
