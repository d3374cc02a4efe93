(** Hierarchical clustering of BRG arcs into logical connections.

    The heart of the ConEx search-space construction (Section 5): start
    with every channel in its own logical connection, then repeatedly
    merge the two lowest-bandwidth clusters into a larger one, labelled
    with the cumulative bandwidth.  Every clustering level is a
    candidate sharing structure whose feasible component assignments
    are then enumerated.

    Chip-boundary discipline: channels that cross the chip boundary can
    only share a connection with other boundary-crossing channels (an
    on-chip wire cannot reach the DRAM pins), so merges never mix the
    two classes. *)

type t = {
  channels : Channel.t list;  (** the arcs implemented by this connection *)
  bandwidth : float;  (** cumulative bytes per CPU access slot *)
  offchip : bool;  (** true when the cluster crosses the chip boundary *)
}

val of_channel : Channel.t -> t
val initial : Channel.t list -> t list
(** Finest level: one cluster per channel. *)

val merge : t -> t -> t
(** @raise Invalid_argument when mixing on-chip and off-chip. *)

val merge_step : t list -> t list option
(** One hierarchical step: merge the two lowest-bandwidth clusters of
    the same boundary class; [None] when no legal pair remains. *)

val levels : Channel.t list -> t list list
(** All clustering levels from finest (one channel per cluster) to
    coarsest (no legal merge left).  Empty input yields one empty
    level. *)

type order =
  | Lowest_bandwidth_first  (** the paper's heuristic *)
  | Highest_bandwidth_first  (** inverted, for ablation *)
  | Random_order of int  (** seeded random pairs, for ablation *)

val merge_step_ordered : order -> t list -> t list option
(** {!merge_step} under an explicit merge-order policy; used by the
    clustering-order ablation bench.  [Lowest_bandwidth_first] is
    exactly {!merge_step}. *)

val levels_ordered : order -> Channel.t list -> t list list
(** {!levels} under an explicit merge-order policy. *)

val describe : t -> string
(** e.g. ["{CPU<->cache, CPU<->SRAM}"]. *)

val add_description : Buffer.t -> t -> unit
(** Append {!describe} to a buffer. *)

val pp : Format.formatter -> t -> unit
