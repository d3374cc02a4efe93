(** Cache replacement policies: the per-set state of the policies that
    depend on way placement, and every policy's hardware state-bit
    charge.

    {!Cache} keeps the sets of the two order-based policies in order
    itself and needs no state from this module for them; for the
    others it owns an array of [t], one per set.  Implemented families
    (the reverse-engineered CPU policies from the CacheTrace line of
    work, plus the two classical baselines):

    - {b True_lru} — the set in recency order; the victim is the least
      recently used line.  Bit-for-bit the historical cache behaviour.
      [ways * log2 ways] state bits per set.  Kept in order by
      {!Cache}.
    - {b Fifo} — the set in fill order, hits do not promote; the victim
      is the oldest fill.  [log2 ways] bits per set (a fill pointer in
      hardware).  Kept in order by {!Cache}.
    - {b Tree_plru} — the binary-tree pseudo-LRU of Core 2-era L1s:
      [ways - 1] direction bits per set, each pointing the victim walk
      away from the recently used subtree.  Requires power-of-two ways.
    - {b Qlru_h11_m1} / {b Qlru_h00_m0} — quad-age LRU (Haswell /
      Coffee Lake style): one 2-bit age per way, hits rewriting the age
      through a hit table (H11: ages 2,3 drop to 1; H00: any hit drops
      to 0), fills inserting at age 1 (M1) or 0 (M0); the victim is the
      lowest-index way of age 3 after normalising the set's maximum age
      up to 3.  [2 * ways] bits per set.
    - {b Mru_n} — bit-PLRU with new-block insertion (Nehalem / Sandy
      Bridge style): one bit per way, set on hit (clearing the others
      when the set would saturate) and left clear on fill; the victim
      is the lowest-index clear bit.  [ways] bits per set.

    Contract with {!Cache.lookup}: [touch] on every hit; [victim] only
    when every way holds a valid line (the cache claims invalid ways
    itself, lowest index first); [fill] on every miss fill.  All
    transitions are deterministic and every victim choice breaks
    remaining ties toward the lowest way index. *)

type t

val create : Params.policy -> ways:int -> t
(** The state of one set under a placement-based policy.
    @raise Invalid_argument on non-positive [ways], on [True_lru] and
    [Fifo] (which {!Cache} keeps in order without a [t]), or on
    non-power-of-two [ways] for [Tree_plru]. *)

val policy : t -> Params.policy
val ways : t -> int

val touch : t -> way:int -> unit
(** Record a hit on [way].  @raise Invalid_argument on a bad way. *)

val fill : t -> way:int -> unit
(** Record a miss fill into [way].  @raise Invalid_argument on a bad
    way. *)

val victim : t -> int
(** The way to evict, assuming every way is valid.  May advance
    internal state (QLRU age normalisation); calling it repeatedly
    without an intervening [fill] returns the same way. *)

val state_bits_per_set : Params.policy -> ways:int -> int
(** Hardware state bits one set of [ways] ways costs under the policy
    (see the per-family accounting above).  For [True_lru] this equals
    the historical per-line [log2 assoc] charge summed over a set, so
    default-policy gate counts are unchanged.
    @raise Invalid_argument on non-positive [ways]. *)
