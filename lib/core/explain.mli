(** Funnel reconstruction from a saved event log.

    [conex explain] loads a JSONL event stream written by
    [conex explore --events-out] (or [strategies --events-out]) and
    answers the two provenance questions the log exists for: {e what
    did the funnel do} ({!summary} — per-stage survivor counts), and
    {e why did this particular design survive or die}
    ({!lifecycle}). *)

val summary : ?truncated:bool -> Mx_util.Event_log.event list -> string
(** Human-readable funnel reconstruction: cluster merges, assignment
    enumeration (levels, cap-pruned, kept), Phase I verdicts
    (created / kept / thinned / dominated), Phase II simulations,
    refinements, per-scenario selections, strategy outcomes, and —
    marked as schedule-dependent — the cache provenance mix.
    [truncated:true] (a tail-truncated log, see
    {!Mx_util.Event_log.load_jsonl}) adds a one-line notice to the
    header. *)

val lifecycle :
  Mx_util.Event_log.event list -> key:string -> (string, string) result
(** The full event lifecycle of one design, in canonical order.  [key]
    is a {!Design.structural_key}, matched exactly first and then as a
    unique prefix (keys are long fingerprints; a short prefix is enough
    on the command line).  For a pruned design the dominating
    competitor's key — and its human-readable id when the log recorded
    its creation — is shown.  [Error] reports an unknown or ambiguous
    key with the candidates. *)
