(** A reusable fixed-size pool of worker domains for data-parallel maps.

    Domains are spawned lazily on the first parallel call and reused by
    every subsequent call (spawning a domain costs ~100µs and each one
    owns a minor heap, so a pool must be long-lived).  The pool only
    ever grows, up to the largest [jobs] ever requested, and is torn
    down automatically at program exit.

    Concurrency contract for work items: the mapped function receives
    elements of the input list and must not share {e mutable} state with
    other invocations — immutable (frozen) structures may be shared
    freely across domains.  [parallel_map] called from inside a worker
    (nested parallelism) silently degrades to [List.map], so it is safe
    but not faster. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1.  One domain is
    reserved for the caller, which also participates in the map. *)

val pool_size : unit -> int
(** Number of worker domains currently alive (0 until the first
    parallel call). *)

val in_worker_domain : unit -> bool
(** True when called from inside a pool worker domain (where nested
    parallel calls degrade to serial).  Useful for labelling
    schedule-dependent ([sched.]) observability records. *)

val parallel_map : jobs:int -> chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map ~jobs ~chunk f xs] is [List.map f xs] computed with up
    to [jobs] domains (the caller plus [jobs - 1] pool workers).  The
    input is split into contiguous chunks of [chunk] elements ([chunk]
    is clamped to at least 1) that are dispatched to the pool; the
    caller executes chunks too, so no domain idles.  It is an ordered
    fold over {!parallel_map_commit}, which owns all of the scheduling.

    Guarantees:
    - {b ordering}: the result list is in input order, identical to
      [List.map f xs] — chunking and scheduling are invisible;
    - {b exceptions}: if any [f x] raises, the first exception in input
      order is re-raised in the caller after all in-flight chunks have
      drained; chunks not yet started are skipped (chunks already in
      flight may have run: [f] should be effect-free);
    - {b serial fallback}: [jobs <= 1], a singleton or empty [xs], or a
      call from inside a pool worker maps [f] left to right on the
      calling domain and spawns nothing.

    @raise Invalid_argument if [jobs < 0]. *)

val parallel_map_commit :
  jobs:int ->
  chunk:int ->
  ?should_stop:(unit -> bool) ->
  commit:(int -> 'a -> 'b -> unit) ->
  ('a -> 'b) ->
  'a list ->
  int
(** [parallel_map_commit ~jobs ~chunk ?should_stop ~commit f xs] maps
    [f] over [xs] with the same pool, chunking and serial-fallback rules
    as {!parallel_map}, but instead of returning the results it hands
    each one to [commit idx x (f x)] — {b only on the calling domain,
    in strict input-index order, each element exactly once}.  Anything
    [commit] does (event emission, archive insertion, accumulation) is
    therefore a pure function of the input list, independent of [jobs]
    and scheduling.  Returns the number of committed elements.

    [should_stop] (default: never) is polled on the calling domain
    before each element is committed (and before each element is
    computed on the serial path).  Once it returns true: no further
    elements are committed, chunks not yet started are skipped,
    in-flight chunks drain, and the call returns the length of the
    committed prefix — an {e anytime} map that always stops at a clean
    input prefix.

    If some [f x] raises, the first exception in commit order is
    re-raised after the committed prefix [0 .. i) is preserved and the
    remaining work is cancelled/drained.  [commit] itself must not
    raise and must not call back into the pool.

    @raise Invalid_argument if [jobs < 0]. *)
