(** Module-level routing simulation.

    Instantiates the stateful module simulators of a {!Mem_arch} and
    routes each trace access to its serving module, reporting hits,
    misses and the off-chip traffic each access causes.  This is the
    paper's "Profile the Memory Modules Architecture" step: BRG arc
    bandwidths, miss ratios and energy all derive from it; the cycle
    simulator layers connectivity timing on the same events. *)

type t

(** Which module serves an access — also identifies the CPU-side
    channel it travels on. *)
type serving = By_cache | By_sram | By_sbuf | By_lldma | By_dram_direct

type outcome = {
  serving : serving;
  hit : bool;
      (** true when served on-chip without an off-chip transfer on the
          critical path ([By_sram] is always a hit; [By_dram_direct]
          never is) *)
  dram_bytes : int;
      (** bytes moved between the serving module and DRAM because of
          this access (line fills, writebacks, prefetches) *)
  dram_txns : int;  (** number of distinct off-chip bursts *)
  dram_critical : bool;
      (** true when the CPU waits for the off-chip transfer (demand
          miss); false for prefetches/writebacks that overlap *)
  l2_bytes : int;
      (** bytes moved between the L1 cache and the L2 because of this
          access (fills and L1 writebacks); 0 without an L2 *)
  l2_txns : int;  (** distinct L1<->L2 bursts *)
  l2_critical : bool;
      (** true when the CPU waits on the L1<->L2 transfer (any L1
          demand miss when an L2 exists) *)
  extra_latency : int;
      (** additional on-chip cycles beyond the serving module's base
          latency (victim-buffer hit recovery) *)
  extra_energy : float;
      (** additional nJ beyond the serving module's access energy
          (victim probes, write-buffer CAM) *)
}

val create : Mem_arch.t -> regions:Mx_trace.Region.t list -> t
(** Fresh simulation state.  @raise Invalid_argument when a region id
    exceeds the architecture's binding table. *)

val arch : t -> Mem_arch.t

val access :
  t -> now:int -> addr:int -> size:int -> write:bool -> region:int -> outcome
(** Route one access.  [now] is the CPU access index (monotone). *)

val dram : t -> Dram.t
(** The shared off-chip DRAM model (row-buffer state). *)

(** Aggregate counters after a run. *)
type stats = {
  accesses : int;
  on_chip_hits : int;
  demand_misses : int;  (** accesses whose critical path went off-chip *)
  dram_bytes_total : int;
  cpu_bytes : serving -> int;  (** CPU-side bytes per serving module *)
  cpu_accesses : serving -> int;  (** CPU-side accesses per serving module *)
  dram_bytes_by : serving -> int;
      (** module-to-DRAM bytes per serving module *)
  dram_txns_by : serving -> int;
      (** module-to-DRAM bursts per serving module *)
  demand_misses_by : serving -> int;
      (** CPU-blocking misses per serving module *)
  victim_hits : int;  (** misses recovered by the victim buffer *)
  wbuf_stalls : int;  (** stores that found the write buffer full *)
  l2_accesses : int;  (** L1 demand misses that probed the L2 *)
  l2_hits : int;  (** of which served on-chip by the L2 *)
  l2_bytes_total : int;  (** total L1<->L2 traffic *)
  l2_txns_total : int;
}

val snapshot : t -> stats
(** Current counters (cheap copy); usable mid-run. *)

val run : t -> Mx_trace.Trace.t -> stats
(** Convenience: route a whole trace and summarise.  Uses
    {!Trace.iter_packed}; the per-access outcomes are folded into the
    stats and not retained. *)

val run_all :
  Mem_arch.t list -> regions:Mx_trace.Region.t list -> Mx_trace.Trace.t ->
  stats list
(** [run_all archs ~regions trace] profiles every architecture over one
    trace.  The results are in order and each equals
    [run (create a ~regions) trace], counter for counter.

    Each access goes, by its region's binding, to exactly one of four
    independent module groups (the cache path, the scratchpad, the
    stream buffer, the LLDMA), so a profile is the sum of its group
    profiles.  A group is keyed by its modules' parameters and the set
    of regions bound to it, and each distinct group is simulated once,
    over only its own accesses, with the global access index as [now].

    Cache-path groups with the same L1 and region set form a family
    and share one pass of that L1, whose lookups allocate nothing.  Each
    miss goes, in lock-step, to one victim buffer per distinct victim
    parameter and to each variant's own L2, which sees only the misses
    its buffer did not recover.  The family counts the L1's misses and
    dirty misses from its lookup codes and each buffer's hits from its
    [Victim_cache.recover] results (no module simulator keeps a tally),
    and derives the L2-less variants' counters from those counts.
    This is exact because neither module acts on the L1 or reads
    [now], and every counter is an integer sum.  The scratchpad group
    and the cacheless group without a write buffer hold no state, so
    they are totalled from their accesses' count and bytes; the other
    groups go through {!access}.  Nothing is retained between calls,
    and no per-family miss stream is recorded.
    @raise Invalid_argument as {!create} and {!access} would. *)

val miss_ratio : stats -> float
(** Demand misses / accesses — the paper's Fig. 3 Y axis ("accesses to
    off-chip memory are misses"). *)
