(** Parameter records for every module in the memory IP library.

    These are the "IP datasheet" values APEX mixes and matches.  All
    latencies are in CPU cycles; sizes in bytes.  The library instances
    in {!Module_lib} provide the standard catalogue explored by the
    paper-scale experiments. *)

(** Replacement policy families (see {!Replacement} for semantics).
    [True_lru] is the historical behaviour and the default; the others
    are the reverse-engineered CPU families: FIFO, tree pseudo-LRU,
    two quad-age LRU variants and bit-pseudo-LRU with new-block
    insertion. *)
type policy =
  | True_lru
  | Fifo
  | Tree_plru
  | Qlru_h11_m1
  | Qlru_h00_m0
  | Mru_n

type cache = {
  c_size : int;  (** total data capacity in bytes; power of two *)
  c_line : int;  (** line size in bytes; power of two *)
  c_assoc : int;  (** associativity; [c_size / c_line] must be divisible *)
  c_latency : int;  (** hit latency, cycles *)
  c_policy : policy;  (** victim-selection policy; [True_lru] by default *)
}

val default_policy : policy
(** [True_lru]. *)

val all_policies : policy list
(** Every implemented policy, in a fixed presentation order. *)

val policy_to_string : policy -> string
(** Lower-case stable name, e.g. ["tree_plru"]. *)

val policy_tag : policy -> string
(** Short unambiguous code used inside structural fingerprints
    (["L"], ["F"], ["P"], ["Q1"], ["Q0"], ["M"]). *)

val policy_presets : (string * policy) list
(** CPU-style preset names (["haswell"], ["skylake"], ...) mapping a
    microarchitecture to its reverse-engineered replacement family. *)

val policy_of_string : string -> policy option
(** Parse a policy or preset name, case-insensitive, accepting ['-']
    for ['_']. *)

type sram = {
  s_size : int;  (** scratchpad capacity in bytes *)
  s_latency : int;  (** access latency, cycles *)
}

type stream_buffer = {
  sb_streams : int;  (** number of concurrent stream slots *)
  sb_line : int;  (** fetch granularity in bytes *)
  sb_depth : int;  (** prefetch depth in lines per stream *)
  sb_latency : int;  (** hit latency, cycles *)
}

type lldma = {
  ll_entries : int;  (** element buffer capacity *)
  ll_elem : int;  (** element size the DMA is programmed for, bytes *)
  ll_max_gap : int;
      (** how many intervening CPU accesses the DMA can tolerate while
          staying ahead of a pointer chase; beyond this the chase is
          considered restarted (miss) *)
  ll_latency : int;  (** hit latency, cycles *)
}

type victim = {
  v_entries : int;  (** fully-associative victim-cache lines *)
  v_latency : int;  (** extra cycles on a victim hit *)
}

type write_buffer = {
  wb_entries : int;  (** coalescing line-granular slots *)
  wb_drain : int;
      (** one slot drains to DRAM every [wb_drain] CPU accesses *)
}

type dram = {
  d_banks : int;
  d_row : int;  (** row-buffer size in bytes *)
  d_cas : int;  (** column access, cycles (row hit) *)
  d_rcd : int;  (** RAS-to-CAS, cycles *)
  d_rp : int;  (** precharge, cycles *)
}

val validate_cache : cache -> unit
(** @raise Invalid_argument on a malformed geometry (including a
    [Tree_plru] policy with non-power-of-two associativity).  A valid
    geometry is all powers of two: size and line are checked to be, and
    an associativity that divides a power-of-two line count is one, so
    the set count is one too. *)

val log2i : int -> int
(** [log2i n] is the floor of log2 [n] for [n >= 1], and 0 below: the
    shift of a power of two. *)

val validate_dram : dram -> unit
val validate_victim : victim -> unit
val validate_write_buffer : write_buffer -> unit
val pp_cache : Format.formatter -> cache -> unit
val pp_sram : Format.formatter -> sram -> unit
val pp_stream_buffer : Format.formatter -> stream_buffer -> unit
val pp_lldma : Format.formatter -> lldma -> unit
val pp_victim : Format.formatter -> victim -> unit
val pp_write_buffer : Format.formatter -> write_buffer -> unit
