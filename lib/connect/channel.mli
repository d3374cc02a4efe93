(** Communication channels: the arcs of the Bandwidth Requirement
    Graph.

    A channel connects two cores of the system (Fig. 2 of the paper:
    CPU, cache, SRAM, stream buffer, DMA modules, off-chip DRAM).  A
    channel {e crosses the chip boundary} when one endpoint is the
    off-chip DRAM; such channels can only be implemented by off-chip
    bus components. *)

type node = Cpu | Cache | L2 | Sram | Sbuf | Lldma | Dram

type t = {
  src : node;
  dst : node;
  bandwidth : float;
      (** average bytes transferred per CPU access slot — the BRG arc
          label *)
  txn_bytes : float;  (** average bytes per transaction on this channel *)
}

val node_to_string : node -> string
val endpoints_to_string : t -> string
(** e.g. ["CPU<->cache"]. *)

val add_endpoints : Buffer.t -> t -> unit
(** Append {!endpoints_to_string} to a buffer. *)

val crosses_chip : t -> bool
(** True when either endpoint is [Dram]. *)

val same_endpoints : t -> t -> bool
val pp : Format.formatter -> t -> unit
