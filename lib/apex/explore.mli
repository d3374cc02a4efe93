(** APEX: Access Pattern-based Memory Modules Exploration.

    Reimplementation of the paper's memory-module exploration stage
    (Grun/Dutt/Nicolau, ISSS'01 — reference [12] of the ConEx paper),
    which produces the selected memory-module architectures that ConEx
    starts from (the labelled points of Fig. 3).

    For the profiled access patterns of an application it enumerates
    combinations of IP-library modules — cache configurations,
    scratchpad SRAM mapping of small hot regions, stream buffers for
    sequential regions, linked-list DMAs for self-indirect regions —
    evaluates each candidate's cost (gates) and overall miss ratio
    (off-chip accesses / total accesses) under a simple connectivity
    model, and keeps the cost/miss-ratio pareto front. *)

type candidate = {
  arch : Mx_mem.Mem_arch.t;
  cost_gates : int;
  miss_ratio : float;
  profile : Mx_mem.Mem_sim.stats;
      (** the module-level profile of this architecture — exactly what
          ConEx's BRG construction needs, so it is computed once here *)
}

type config = {
  caches : Mx_mem.Params.cache list;
  include_no_cache : bool;
      (** also try architectures with no cache at all (viable when the
          mapped modules cover almost all traffic, as in vocoder) *)
  sbufs : Mx_mem.Params.stream_buffer list;
  lldmas : Mx_mem.Params.lldma list;
  l2s : Mx_mem.Params.cache list;
      (** second-level cache options tried behind compatible caches *)
  victims : Mx_mem.Params.victim list;
      (** victim-buffer options tried behind each cache candidate *)
  write_buffers : Mx_mem.Params.write_buffer list;
      (** posted-write-buffer options tried on cache-less candidates *)
  sram_budget : int;  (** max scratchpad bytes (0 disables SRAM mapping) *)
  max_selected : int;  (** architectures handed to ConEx (paper: 5) *)
}

val default_config : config
(** Full module library, 16 KB scratchpad budget, 5 selected designs. *)

val reduced_config : config
(** Smaller catalogue for tests and for experiments whose Full
    enumeration must terminate quickly (Table 2). *)

val candidates : config -> Mx_trace.Profile.t -> Mx_mem.Mem_arch.t list
(** The candidate architectures implied by the profiled patterns; no
    evaluation. *)

val evaluate :
  Mx_trace.Profile.t -> Mx_mem.Mem_arch.t -> candidate
(** Replay the trace through the architecture's modules (simple
    connectivity assumed) and measure cost and miss ratio: one
    straight-line {!Mx_mem.Mem_sim.run}, the reference for {!explore}. *)

val explore : ?config:config -> Mx_trace.Profile.t -> candidate list
(** Every candidate of [config], in enumeration order.  Each result
    equals [evaluate p arch] for its architecture, profile counter for
    profile counter; the profiles come from one
    {!Mx_mem.Mem_sim.run_all} call, which simulates each distinct
    module group once. *)

val pareto : candidate list -> candidate list
(** Cost/miss-ratio pareto front, sorted by increasing cost. *)

val select : ?config:config -> Mx_trace.Profile.t -> candidate list
(** The full APEX stage: explore, prune to the pareto front, drop
    designs "many times worse than the best" (the paper's own filter),
    and thin to [max_selected] representative points (always keeping
    both extremes; with [max_selected = 1], the lowest-cost banded
    point; a non-positive [max_selected] keeps them all).  A
    traditional cache-only architecture is always included as the
    baseline — the paper's designs a/b — so the result may hold
    [max_selected + 1] entries.  This is the input to ConEx. *)
