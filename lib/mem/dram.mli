(** Off-chip DRAM with per-bank open-row (row-buffer) policy.

    Returns the {e core} access latency only; serialization over the
    off-chip bus is the connectivity architecture's contribution and is
    modelled by the simulator on top of this.

    The model keeps only each bank's open row, which decides the next
    access's latency, and counts nothing: {!access} returns the
    latency, and its caller accounts for it. *)

type t

val create : Params.dram -> t
(** @raise Invalid_argument via {!Params.validate_dram}. *)

val params : t -> Params.dram

val access : t -> addr:int -> int
(** Latency in DRAM-side cycles for a transfer starting at [addr]:
    [d_cas] on a row hit, [d_rp + d_rcd + d_cas] on a row conflict
    ([d_rcd + d_cas] on an idle bank). *)
