(** Reservation tables (RTGEN-style).

    The paper uses reservation tables to model latency, pipelining and
    resource conflicts in the connectivity and memory architecture.  A
    component is a set of numbered resources (arbitration/address stage,
    data path); a transaction is a {e template} of per-resource busy
    intervals relative to its start cycle.  Scheduling a transaction
    means finding the earliest start at which its template does not
    collide with previously reserved intervals.

    {!Component.txn_latency}/{!Component.occupancy} are the closed-form
    views of the same templates; the test suite checks that both views
    agree on every library component at every transfer size from 1 to
    256 bytes.  That agreement is what lets the analytic estimator take
    its service times from the closed forms; its straight-line
    reference in the correctness harness still measures them with
    {!initiation_interval}, so the differential check re-tests the
    agreement on every generated case. *)

type slot = { resource : int; offset : int; duration : int }

type template = slot list

type t

val create : n_resources:int -> t
(** Empty table.  @raise Invalid_argument for non-positive count. *)

val fits : t -> at:int -> template -> bool
(** Does the template collide with existing reservations when started
    at cycle [at]? *)

val reserve : t -> at:int -> template -> unit
(** @raise Invalid_argument when the template does not fit. *)

val earliest_fit : t -> from:int -> template -> int
(** Smallest start cycle [>= from] at which the template fits. *)

val release_before : t -> int -> unit
(** Drop reservations that end before the given cycle (sliding
    window — keeps long simulations O(outstanding) per query). *)

val template_for : Component.t -> bytes:int -> template
(** The transaction template of a library component: pipelined
    components split the address/arbitration stage from the data path
    so back-to-back transactions overlap; non-pipelined components hold
    a single resource for the whole transaction. *)

val latency_of : template -> int
(** Completion time of a template started at 0. *)

val initiation_interval : Component.t -> bytes:int -> int
(** Minimum cycles between back-to-back transactions of this shape,
    measured by scheduling two against an empty table. *)
