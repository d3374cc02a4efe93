(** A bounded, thread-safe, content-addressed result cache.

    Values are keyed by canonical {e fingerprint} strings; callers are
    responsible for keys being injective over the inputs of the cached
    computation (two different computations must never share a key).

    {b Single-flight.}  Concurrent {!find_or_compute} calls for the same
    key from different {!Task_pool} domains run the computation exactly
    once: the first caller computes, the others block until the result
    is published and then return it as a hit.  Consequently the number
    of computations — and therefore every counter the computation
    itself records — is identical at every jobs level, preserving the
    Metrics determinism contract for the cached code.

    {b Eviction.}  Capacity is a bound on resident entries.  When an
    insert exceeds it, the least-recently-used completed entry is
    dropped (exact LRU on lookup order, O(1) per eviction).  Entries
    still being computed are never evicted.  Because the lookup order across domains depends on
    scheduling, {e which} entry is evicted — and thus the hit/miss
    pattern of a run that overflows the capacity — may differ between
    jobs levels; size the cache to the working set when bit-identical
    counter parity matters.

    {b Failures} are never cached: if the computation raises, the
    in-flight marker is removed, the exception propagates to the
    computing caller, and waiting callers retry the computation.

    {b Counters.}  Hits, misses and evictions are counted locally
    ({!stats}) and, when [metrics_prefix] is given, also recorded into
    the registry as [<prefix>.hits], [<prefix>.misses] and
    [<prefix>.evictions]. *)

type 'a t

type stats = {
  hits : int;  (** lookups served from the cache (including waiters) *)
  misses : int;  (** lookups that ran the computation *)
  evictions : int;  (** entries dropped by the capacity bound *)
  size : int;  (** entries currently resident *)
}

val create :
  ?registry:Metrics.t -> ?metrics_prefix:string -> capacity:int -> unit -> 'a t
(** [registry] defaults to {!Metrics.global}; counters are only
    recorded there when [metrics_prefix] is given (local {!stats} are
    always maintained).  [capacity <= 0] creates a disabled cache:
    every {!find_or_compute} runs the computation (counted as a miss)
    and nothing is retained. *)

val find_or_compute : 'a t -> key:string -> (unit -> 'a) -> 'a
(** The cached value under [key], computing (and caching) it on a miss.
    The computation runs outside the cache lock; see the single-flight
    and failure notes above. *)

val find_or_compute_prov : 'a t -> key:string -> (unit -> 'a) -> 'a * bool
(** {!find_or_compute} that also reports provenance: [true] when the
    value was served from the cache (including single-flight waiters
    that parked while another domain computed it), [false] when this
    call ran the computation. *)

val peek : 'a t -> key:string -> 'a option
(** The completed value under [key] if resident: counts a hit and
    refreshes recency when found, records nothing when absent.  Never
    blocks and never computes ([Pending] entries read as absent). *)

val capacity : 'a t -> int
val enabled : 'a t -> bool
(** [capacity t > 0]. *)

val length : 'a t -> int
(** Resident entries (including in-flight computations). *)

val stats : 'a t -> stats

val clear : 'a t -> unit
(** Drop every resident entry (counters are kept).  In-flight
    computations complete normally but are not retained. *)
