(** A memory-modules architecture: which modules exist and which data
    region is served by which module.

    This is the object APEX produces (the labelled points of the paper's
    Fig. 3) and the starting point of ConEx.  [To_cache] bindings fall
    through to off-chip DRAM when the architecture has no cache, which
    models the degenerate all-off-chip designs. *)

type binding =
  | To_cache  (** served by the cache (or directly by DRAM if none) *)
  | To_sram  (** mapped into the on-chip scratchpad *)
  | To_sbuf  (** served by the stream buffer *)
  | To_lldma  (** served by the linked-list DMA *)

type t = private {
  label : string;
  cache : Params.cache option;
  sbuf : Params.stream_buffer option;
  lldma : Params.lldma option;
  sram : Params.sram option;
  l2 : Params.cache option;
      (** unified second-level cache between the L1 cache and DRAM
          (requires [cache]; its line must be >= the L1 line) *)
  victim : Params.victim option;
      (** victim buffer behind the cache (requires [cache]) *)
  wbuf : Params.write_buffer option;
      (** posted-write buffer for direct off-chip stores *)
  bindings : binding array;
      (** indexed by region id; {!make} keeps its own copy *)
  fingerprint : string;  (** {!fingerprint}, computed once by {!make} *)
}

val make :
  label:string ->
  ?cache:Params.cache ->
  ?sbuf:Params.stream_buffer ->
  ?lldma:Params.lldma ->
  ?sram:Params.sram ->
  ?l2:Params.cache ->
  ?victim:Params.victim ->
  ?wbuf:Params.write_buffer ->
  bindings:binding array ->
  unit ->
  t
(** The only constructor ([t] is private): validates the modules,
    copies [bindings] and computes the {!fingerprint} once.
    @raise Invalid_argument when a binding targets a module the
    architecture does not contain, when a victim buffer is requested
    without a cache, or when parameters are malformed. *)

val cost_gates : t -> int
(** Total on-chip memory cost (off-chip DRAM is not on-chip area). *)

val has_module : t -> binding -> bool
(** Whether the module class targeted by this binding kind exists. *)

val binding_of : t -> region:int -> binding
(** @raise Invalid_argument for an out-of-range region id. *)

val fingerprint : t -> string
(** Canonical structural fingerprint: every parameter of every present
    module plus the binding table, in one fixed field order — injective
    over structure, so it is safe as a content-address for evaluation
    results.  The [label] is excluded: identically-structured
    architectures fingerprint identically whatever they are called.
    Any single parameter change produces a different fingerprint.
    Computed once by {!make}, so this is a field read. *)

val describe : t -> string
(** Short human description, e.g. ["cache 8KB/32/2 + sbuf(4) + lldma"]. *)

val pp : Format.formatter -> t -> unit
