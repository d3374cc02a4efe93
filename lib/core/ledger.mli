(** The persistent run ledger: versioned manifests of finished (or
    interrupted) explorations, written into a directory by
    [conex explore --run-dir] and the bench harness, listed and
    compared by [conex runs list] / [conex runs diff].

    A manifest records what a run {e was} — workload fingerprint,
    deterministic configuration, funnel counts, the final
    cost/performance front — and what it {e cost} — wall time, cache
    hit rate, the jobs/shards schedule.  The first group is the
    {b canonical} part: for the same workload and configuration it is
    byte-identical across every [--shards x --jobs] combination
    ({!canonical_json}).  The run id hashes the kind, the workload
    fingerprint and the deterministic config, not the JSON.  The second
    group lives in explicitly exempt [timing] / [cache] / [sched]
    sections, mirroring the {!Mx_util.Metrics} determinism contract.

    {!diff} compares two manifests and flags regressions — wall time,
    cache hit rate, front coverage — against thresholds, which is what
    turns a directory of manifests into tracked perf history. *)

type front_point = { f_cost : float; f_latency : float; f_energy : float }

type manifest = {
  version : int;  (** schema version, currently {!schema_version} *)
  run_id : string;
      (** 16 hex digits derived from kind, workload fingerprint and the
          deterministic config — identical runs share an id *)
  kind : string;  (** ["explore"], ["strategies:Pruned"], ["bench:..."] *)
  created_at : string;  (** UTC [YYYY-MM-DDThh:mm:ssZ]; exempt *)
  workload_name : string;
  workload_fp : string;  (** {!Mx_trace.Workload.fingerprint} *)
  config_kv : (string * string) list;
      (** deterministic configuration, sorted by key — everything that
          shapes the result (scale, seed, caps, sampling, eps...) *)
  sched_kv : (string * string) list;
      (** schedule-only knobs, sorted by key — jobs, shards...; exempt *)
  counters : (string * int) list;
      (** final deterministic metrics counters
          ({!Mx_util.Metrics.deterministic_counters}), minus the
          [shard.] namespace (shard counts legitimately vary with
          [--shards]); sorted *)
  n_estimates : int;
  n_simulations : int;
  front : front_point list;  (** final cost/perf front, cost-sorted *)
  interrupted : bool;
  wall_seconds : float;  (** exempt *)
  cache_hits : int;  (** exempt *)
  cache_misses : int;  (** exempt *)
}

val schema_version : int
(** 2: every number is printed exactly ({!Mx_util.Json.number}).
    Version 1 printed them at 6 significant digits. *)

val make :
  kind:string ->
  config_kv:(string * string) list ->
  sched_kv:(string * string) list ->
  result:Explore.result ->
  manifest
(** Build a manifest from a finished {!Explore.run} result.  Cache
    counters and the deterministic counter set are read from
    {!Mx_util.Metrics.global} (zeros when metrics are off); the
    timestamp is taken now. *)

val cache_hit_rate : manifest -> float
(** hits / (hits + misses); 0 when the cache was never consulted. *)

(** {1 Serialisation} *)

val canonical_json : manifest -> string
(** The canonical part only — no [created_at], [timing], [cache] or
    [sched] — byte-comparable across schedule settings: one
    {!Mx_util.Json.to_string} line ended by a newline. *)

val to_json : manifest -> string
(** {!canonical_json}'s document with the exempt fields appended. *)

val of_json : string -> (manifest, string) result
(** Reads manifests of versions 1 and 2; any other version is an
    [Error]. *)

(** {1 The ledger directory} *)

val save : dir:string -> manifest -> (string, string) result
(** Write the manifest into [dir] (created if missing) as
    [run-<created_at compact>-<run_id>.json], atomically
    (write-temp + rename), suffixing the name on collision.  Returns
    the path written. *)

val load : path:string -> (manifest, string) result

val list : dir:string -> ((string * manifest) list, string) result
(** Every [run-*.json] manifest in [dir] as [(filename, manifest)],
    sorted by filename (which orders by creation time); unreadable or
    alien files are skipped.  An absent directory is an empty
    ledger. *)

(** {1 Comparison} *)

type thresholds = {
  max_wall_ratio : float;
      (** B regresses when [wall_b > wall_a *. max_wall_ratio]
          (default 1.25) *)
  max_hit_drop : float;
      (** B regresses when its hit rate drops by more than this many
          percentage points (default 10.0) *)
  min_front_coverage : float;
      (** B regresses when it covers less than this fraction of A's
          front (default 0.99) *)
}

val default_thresholds : thresholds

type diff = {
  a : manifest;
  b : manifest;
  comparable : bool;
      (** same schema version, kind, workload fingerprint and
          deterministic config — thresholds only apply to comparable
          pairs.  A version-1 front point is rounded, so it may sit
          just outside the same point written exactly by version 2. *)
  wall_ratio : float;  (** [wall_b / wall_a]; 1 when [wall_a = 0] *)
  hit_drop_pp : float;  (** hit-rate drop in percentage points *)
  front_coverage : float;
      (** fraction of A's front points weakly dominated (cost and
          latency both no worse) by some point of B's front; 1 when A's
          front is empty *)
  wall_regressed : bool;
  hit_regressed : bool;
  front_regressed : bool;
}

val compare_runs : ?thresholds:thresholds -> manifest -> manifest -> diff

val regressed : diff -> bool
(** Any threshold tripped (always false for incomparable pairs —
    render makes the mismatch loud instead). *)

val render_diff : diff -> string
(** Human-readable comparison: identity lines for both runs, a
    config-mismatch warning for incomparable pairs, then one verdict
    line per tracked dimension plus the funnel-count deltas. *)
