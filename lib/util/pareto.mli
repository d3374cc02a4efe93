(** Pareto-front machinery for multi-objective design-space exploration.

    All objectives are minimised: costs, latencies and energies are all
    "lower is better".  A design [a] {e dominates} [b] when [a] is no
    worse than [b] on every axis and strictly better on at least one.
    A design is on the pareto front of a set when no member dominates
    it — the paper's definition (Section 6, footnote 3). *)

type 'a axis = 'a -> float
(** An objective projection; lower values are better. *)

val dominates : axes:'a axis list -> 'a -> 'a -> bool
(** [dominates ~axes a b] is true iff [a] dominates [b]. *)

(** Allocation-free incremental front over flat float coordinates: the
    one front algorithm, of which {!front} is a fold.

    Offer points one at a time, each a coordinate vector and an integer
    id.  A point is rejected when a member dominates it; otherwise the
    members it dominates leave and it joins at the end.  After any
    sequence of offers the members are exactly the points that no
    offered point dominates (dominance is transitive), in offer order,
    so fronts built over the pieces of a stream and merged in stream
    order equal the front of the whole stream.  Equal points are all
    kept; a point with a NaN coordinate dominates nothing and nothing
    dominates it.

    The members live in two flat arrays that double when full: once a
    front has reached its size an offer allocates nothing.  O(f) work
    per offer for a front of size [f]. *)
module Flat : sig
  type t

  val create : dims:int -> t
  (** An empty front over [dims] coordinates.
      @raise Invalid_argument if [dims < 0]. *)

  val offer : t -> float array -> int -> unit
  (** [offer t x id] offers the point whose coordinates are the first
      [dims] entries of [x]; [x] is copied, not kept. *)

  val merge : into:t -> t -> unit
  (** Offer every member of the second front to [into], in its order.
      @raise Invalid_argument when the fronts' [dims] differ. *)

  val size : t -> int
  (** The number of members. *)

  val id : t -> int -> int
  (** [id t m] is the id of member [m], [0 <= m < size t]; members are
      in offer order. *)
end

val front : axes:'a axis list -> 'a list -> 'a list
(** [front ~axes designs] returns the non-dominated subset, preserving
    first-occurrence order: a fold of {!Flat.offer} over the designs.
    Duplicate objective vectors are all kept (they dominate nothing and
    are dominated by nothing), and so is any point with a NaN
    coordinate, which dominates nothing.  Each axis is evaluated once
    per point; O(n·f) comparisons for [n] points and a front of size
    [f]. *)

val front2 : x:'a axis -> y:'a axis -> 'a list -> 'a list
(** Two-objective front, returned sorted by increasing [x].  O(n log n)
    sweep. *)

val sort_by : 'a axis -> 'a list -> 'a list
(** Stable ascending sort by one axis. *)

(** Coverage of a reference front by an explored point set — the metric
    of the paper's Table 2. *)
module Coverage : sig
  type report = {
    total : int;          (** size of the reference pareto front *)
    found : int;          (** reference points matched exactly *)
    coverage_pct : float; (** [100 * found / total]; 100.0 when [total = 0] *)
    avg_dist_pct : float array;
        (** per-axis average percentile deviation between each {e missed}
            reference point and the explored point nearest to it
            (normalised Euclidean nearest); length = number of axes;
            all zeros when nothing is missed *)
  }

  val eval :
    axes:'a axis list ->
    equal:('a -> 'a -> bool) ->
    reference:'a list ->
    explored:'a list ->
    report
  (** [eval ~axes ~equal ~reference ~explored] measures how well
      [explored] covers the [reference] front.  [equal] decides whether
      an explored design {e is} a given reference design (typically
      structural equality on the architecture, not on metrics).  When
      [explored] is empty every reference point is missed: the report
      has [found = 0] (0% coverage for a non-empty reference) and
      all-zero [avg_dist_pct], since there is no nearest explored point
      to measure a distance to. *)
end

(** Bounded, incrementally-updated pareto archive with ε-dominance
    thinning.  Feed it evaluated designs one at a time; [front] emits
    the current non-dominated set {e at any moment} — the core of the
    anytime exploration contract: interrupt a run after any prefix of
    insertions and the emitted front is a valid pareto front of exactly
    that prefix.

    Determinism: the archive's state is a pure function of the
    insertion sequence (no clocks, no randomness), so identical
    insertion streams yield byte-identical fronts regardless of how the
    evaluations that produced them were scheduled.

    With [eps = 0] and no [capacity] (the defaults), the final [front]
    over a full insertion stream equals [front2 ~x ~y] of the same list
    for two axes (same members, same order, duplicates included), and
    the non-dominated subset of [front ~axes] for any axis count.

    The archive keeps only its members and their insertion order, and
    counts nothing: each {!insert} returns its outcome, and the caller
    counts those (the explorer's [explore.archive.*] metrics). *)
module Archive : sig
  type 'a t

  type 'a outcome =
    | Added of { removed : 'a list; evicted : 'a list }
        (** Inserted.  [removed] = previously archived members now
            dominated by the new point (ascending insertion order);
            [evicted] = members dropped by capacity thinning (possibly
            including the new point itself). *)
    | Rejected  (** (ε-)dominated by an archived member; not inserted. *)

  val create :
    axes:'a axis list -> ?eps:float -> ?capacity:int -> unit -> 'a t
  (** [create ~axes ?eps ?capacity ()] makes an empty archive.  [eps]
      (default 0) is the relative ε-dominance slack: an incoming point
      is rejected when an archived member is within a [(1 + eps)]
      multiplicative factor of it on every axis and strictly inside
      that slack on at least one (axes are assumed non-negative when
      [eps > 0]).  [capacity] bounds the member count; when exceeded,
      the most crowded member (smallest span-normalised crowding
      distance; extremes never) is dropped, ties evicting the newest.
      @raise Invalid_argument on empty [axes], [eps < 0] or
      [capacity < 1]. *)

  val insert : 'a t -> 'a -> 'a outcome
  (** Offer one point.  O(size) dominance scan (plus an O(size log
      size) crowding pass when capacity-thinning triggers). *)

  val front : 'a t -> 'a list
  (** Current non-dominated set, sorted by the axes in order (first
      axis ascending, ties by the next, ...) and finally by insertion
      order — for two axes this is exactly [front2]'s output order. *)

  val size : 'a t -> int

  val of_list :
    axes:'a axis list -> ?eps:float -> ?capacity:int -> 'a list -> 'a t
  (** [of_list ~axes vs] inserts [vs] in order into a fresh archive. *)
end
