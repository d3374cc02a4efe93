(** Live run telemetry: periodic, atomically-published status snapshots.

    A long sharded exploration ([conex explore --shards N]) is opaque
    while it runs; this module gives it a heartbeat.  The exploration
    side ticks the ambient {!val-tracker} from its commit loop
    ({!set_phase}, {!add_shards_planned}, {!shard_committed},
    {!eval_committed} — all near-free while tracking is off), and a
    watchdog domain renders the current state to a status file on a
    fixed cadence.  [conex status FILE] reads the file back.

    {b Atomic publication.}  Every write goes to a temporary file in
    the status file's directory and is renamed over the target, so a
    concurrent reader sees either the previous snapshot or the new one,
    never a torn write.  The watchdog keeps writing on its own clock,
    which is what makes {e stalls} visible: when the commit loop stops
    committing, the snapshot's commit age keeps growing and the
    [stalled] flag trips after [stall_after] seconds.

    {b Determinism contract.}  The snapshot document splits into a
    deterministic part — [version], [phase], the [progress] counters —
    that must be byte-identical across [--shards x --jobs] levels for
    the same exploration, and explicitly exempt [timing], [cache] and
    [sched] sections (wall-clock, cache hit patterns and per-domain
    utilization are schedule-dependent by nature).  {!canonical_json}
    renders exactly the deterministic part; the test suite compares it
    across jobs levels. *)

(** {1 The snapshot document} *)

type progress = {
  shards_planned : int;
  shards_committed : int;
  evals_committed : int;  (** designs evaluated (estimates + simulations) *)
  archive_size : int;  (** current Pareto archive population *)
}

type timing = {
  elapsed_s : float;  (** since {!start} *)
  eval_rate : float;  (** evals committed per second of elapsed time *)
  eta_s : float option;
      (** projected seconds to finish the current shard plan, from the
          mean committed-shard duration; [None] until the first commit
          or outside a shard phase *)
  last_commit_age_s : float;  (** seconds since the last commit tick *)
  stalled : bool;  (** [last_commit_age_s > stall_after] *)
}

type cache = {
  hits : int;
  misses : int;
  hit_rate : float;  (** 0 when the cache was never consulted *)
}

type domain_util = {
  dom_id : int;
  busy_s : float;  (** summed busy time from the task-pool histograms *)
  utilization : float;  (** [busy_s / elapsed_s], clamped to [0, 1] *)
}

type t = {
  version : int;  (** schema version, currently {!schema_version} *)
  phase : string;  (** e.g. ["explore.phase1"] *)
  progress : progress;
  timing : timing;  (** exempt from the determinism contract *)
  cache : cache;  (** exempt *)
  domains : domain_util list;  (** exempt; sorted by [dom_id] *)
}

val schema_version : int

val to_json : t -> string
(** The full document, one {!Json.to_string} line ended by a newline:
    {v
    { "version": n, "phase": s,
      "progress": {"shards_planned": n, "shards_committed": n,
                   "evals_committed": n, "archive_size": n},
      "timing":   {"elapsed_s": x, "eval_rate": x, "eta_s": x|null,
                   "last_commit_age_s": x, "stalled": b},
      "cache":    {"hits": n, "misses": n, "hit_rate": x},
      "sched":    {"domains": [{"id": n, "busy_s": x,
                                "utilization": x}, ...]} }
    v} *)

val of_json : string -> (t, string) result
(** Inverse of {!to_json}; tolerates missing exempt sections (they read
    as zeros) but requires [version], [phase] and [progress]. *)

val canonical_json : t -> string
(** Only the deterministic part — [version], [phase], [progress] —
    rendered with fixed keys in the same layout; byte-comparable across
    jobs and shard levels.  {!to_json} is this document with the exempt
    sections appended. *)

val to_text : t -> string
(** Human-readable rendering for [conex status]: one header line
    (phase, stall warning), progress with a shard bar and ETA, then
    throughput, cache and per-domain utilization lines. *)

(** {1 The ambient tracker} *)

val start :
  ?interval:float -> ?stall_after:float -> path:string -> unit -> unit
(** Begin tracking and spawn the watchdog writer.  [interval] (default
    1s, clamped to at least 0.05) is the write cadence; [stall_after]
    (default 30s) the commit age that trips [stalled].  The first
    snapshot is written immediately.  Calling {!start} while already
    active finishes the previous tracker first. *)

val active : unit -> bool

val finish : unit -> unit
(** Stop the watchdog (joining its domain), write one final snapshot,
    and reset the tracker.  No-op when not active. *)

(** {1 Ticks} — all no-ops while the tracker is inactive. *)

val set_phase : string -> unit

val add_shards_planned : int -> unit
(** Extend the shard plan; resets nothing else. *)

val shard_committed : ?archive:int -> unit -> unit
(** One shard committed; [archive] updates the archive population. *)

val eval_committed : ?by:int -> ?archive:int -> unit -> unit
(** [by] (default 1) designs evaluated and committed. *)

val capture : unit -> t
(** The tracker's current state as a snapshot document (all-zero when
    inactive).  Cache counters and per-domain busy time are read from
    {!Metrics.global} ([eval.cache.hits]/[misses] and the
    [task_pool.sched.domain_busy_s.*] histograms). *)

val write_now : unit -> unit
(** Force one atomic write outside the cadence (no-op when
    inactive). *)
