type serving = By_cache | By_sram | By_sbuf | By_lldma | By_dram_direct

type outcome = {
  serving : serving;
  hit : bool;
  dram_bytes : int;
  dram_txns : int;
  dram_critical : bool;
  l2_bytes : int;
  l2_txns : int;
  l2_critical : bool;
  extra_latency : int;
  extra_energy : float;
}

(* Integer counters of one simulation; the per-serving arrays are
   indexed by [serving_index] (5 classes). *)
type counters = {
  cpu_acc : int array;
  cpu_cnt : int array;
  dram_acc : int array;
  dram_txn : int array;
  miss_cnt : int array;
  mutable n_access : int;
  mutable n_hit : int;
  mutable n_demand_miss : int;
  mutable dram_total : int;
  mutable n_victim_hit : int;
  mutable n_wbuf_stall : int;
  mutable n_l2_access : int;
  mutable n_l2_hit : int;
  mutable l2_bytes_acc : int;
  mutable l2_txns_acc : int;
}

type t = {
  arch : Mem_arch.t;
  cache : Cache.t option;
  l2 : Cache.t option;
  sbuf : Stream_buffer.t option;
  lldma : Lldma.t option;
  victim : Victim_cache.t option;
  wbuf : Write_buffer.t option;
  dram : Dram.t;
  line_bits : int; (* the cache's line shift; 0 without a cache *)
  k : counters;
}

let serving_index = function
  | By_cache -> 0
  | By_sram -> 1
  | By_sbuf -> 2
  | By_lldma -> 3
  | By_dram_direct -> 4

let zero_counters () =
  {
    cpu_acc = Array.make 5 0;
    cpu_cnt = Array.make 5 0;
    dram_acc = Array.make 5 0;
    dram_txn = Array.make 5 0;
    miss_cnt = Array.make 5 0;
    n_access = 0;
    n_hit = 0;
    n_demand_miss = 0;
    dram_total = 0;
    n_victim_hit = 0;
    n_wbuf_stall = 0;
    n_l2_access = 0;
    n_l2_hit = 0;
    l2_bytes_acc = 0;
    l2_txns_acc = 0;
  }

let add_counters ~into:a b =
  let add dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src in
  add a.cpu_acc b.cpu_acc;
  add a.cpu_cnt b.cpu_cnt;
  add a.dram_acc b.dram_acc;
  add a.dram_txn b.dram_txn;
  add a.miss_cnt b.miss_cnt;
  a.n_access <- a.n_access + b.n_access;
  a.n_hit <- a.n_hit + b.n_hit;
  a.n_demand_miss <- a.n_demand_miss + b.n_demand_miss;
  a.dram_total <- a.dram_total + b.dram_total;
  a.n_victim_hit <- a.n_victim_hit + b.n_victim_hit;
  a.n_wbuf_stall <- a.n_wbuf_stall + b.n_wbuf_stall;
  a.n_l2_access <- a.n_l2_access + b.n_l2_access;
  a.n_l2_hit <- a.n_l2_hit + b.n_l2_hit;
  a.l2_bytes_acc <- a.l2_bytes_acc + b.l2_bytes_acc;
  a.l2_txns_acc <- a.l2_txns_acc + b.l2_txns_acc

(* Simulation state for [arch]'s bindings with no modules; callers
   instantiate the modules their accesses reach. *)
let bare arch =
  {
    arch;
    cache = None;
    l2 = None;
    sbuf = None;
    lldma = None;
    victim = None;
    wbuf = None;
    dram = Dram.create Module_lib.default_dram;
    line_bits = 0;
    k = zero_counters ();
  }

let check_regions (arch : Mem_arch.t) regions =
  List.iter
    (fun (r : Mx_trace.Region.t) ->
      if r.id >= Array.length arch.Mem_arch.bindings then
        invalid_arg "Mem_sim.create: region id outside binding table")
    regions

let create (arch : Mem_arch.t) ~regions =
  check_regions arch regions;
  {
    (bare arch) with
    cache = Option.map Cache.create arch.Mem_arch.cache;
    l2 = Option.map Cache.create arch.Mem_arch.l2;
    sbuf = Option.map Stream_buffer.create arch.Mem_arch.sbuf;
    lldma = Option.map Lldma.create arch.Mem_arch.lldma;
    victim = Option.map Victim_cache.create arch.Mem_arch.victim;
    wbuf = Option.map Write_buffer.create arch.Mem_arch.wbuf;
    line_bits =
      (match arch.Mem_arch.cache with
      | Some c -> Params.log2i c.Params.c_line
      | None -> 0);
  }

let arch t = t.arch
let dram t = t.dram

let record t serving ~size ~(o : outcome) =
  let k = t.k in
  let i = serving_index serving in
  k.cpu_acc.(i) <- k.cpu_acc.(i) + size;
  k.cpu_cnt.(i) <- k.cpu_cnt.(i) + 1;
  k.dram_acc.(i) <- k.dram_acc.(i) + o.dram_bytes;
  k.dram_txn.(i) <- k.dram_txn.(i) + o.dram_txns;
  k.n_access <- k.n_access + 1;
  if o.hit then k.n_hit <- k.n_hit + 1;
  if o.dram_critical then begin
    k.n_demand_miss <- k.n_demand_miss + 1;
    k.miss_cnt.(i) <- k.miss_cnt.(i) + 1
  end;
  k.l2_bytes_acc <- k.l2_bytes_acc + o.l2_bytes;
  k.l2_txns_acc <- k.l2_txns_acc + o.l2_txns;
  k.dram_total <- k.dram_total + o.dram_bytes

let base serving ~hit ~dram_bytes ~dram_txns ~dram_critical =
  { serving; hit; dram_bytes; dram_txns; dram_critical; l2_bytes = 0;
    l2_txns = 0; l2_critical = false; extra_latency = 0; extra_energy = 0.0 }

(* An L1 miss that the victim buffer, if any, did not recover, served
   through the non-inclusive [l2]: the evicted L1 line, when [dirty],
   drains into the L2 before the L2 serves the demand fill of [addr].
   The result is the miss's DRAM bursts of one L2 line each: the fill on
   an L2 miss, and the L2's own dirty evictions.  It is negated when the
   fill hit the L2, so a hit is a result of at most 0. *)
let l2_fill l2 ~line_bits ~addr ~evicted ~dirty =
  let wb_txns =
    if not dirty then 0
    else
      let wr = Cache.lookup l2 ~addr:(evicted lsl line_bits) ~write:true in
      if wr = Cache.hit then 0 else if Cache.dirty wr then 2 else 1
  in
  let dr = Cache.lookup l2 ~addr ~write:false in
  if dr = Cache.hit then -wb_txns
  else 1 + wb_txns + Bool.to_int (Cache.dirty dr)

let access t ~now ~addr ~size ~write ~region =
  let binding = Mem_arch.binding_of t.arch ~region in
  let o =
    match binding with
    | Mem_arch.To_sram ->
      base By_sram ~hit:true ~dram_bytes:0 ~dram_txns:0 ~dram_critical:false
    | Mem_arch.To_sbuf ->
      let sb = Option.get t.sbuf in
      let r = Stream_buffer.access sb ~addr ~write in
      let line = (Stream_buffer.params sb).Params.sb_line in
      if r.Stream_buffer.hit then
        base By_sbuf ~hit:true
          ~dram_bytes:(r.Stream_buffer.fetched_lines * line)
          ~dram_txns:(if r.Stream_buffer.fetched_lines > 0 then 1 else 0)
          ~dram_critical:false
      else
        base By_sbuf ~hit:false
          ~dram_bytes:(r.Stream_buffer.fetched_lines * line) ~dram_txns:1
          ~dram_critical:true
    | Mem_arch.To_lldma ->
      let ll = Option.get t.lldma in
      let r = Lldma.access ll ~now ~write in
      let elem = (Lldma.params ll).Params.ll_elem in
      if r.Lldma.hit then
        base By_lldma ~hit:true ~dram_bytes:(r.Lldma.fetched_elems * elem)
          ~dram_txns:(if r.Lldma.fetched_elems > 0 then 1 else 0)
          ~dram_critical:false
      else
        base By_lldma ~hit:false ~dram_bytes:(r.Lldma.fetched_elems * elem)
          ~dram_txns:r.Lldma.fetched_elems
          ~dram_critical:(r.Lldma.fetched_elems > 0)
    | Mem_arch.To_cache -> (
      match t.cache with
      | Some c -> (
        let code = Cache.lookup c ~addr ~write in
        if code = Cache.hit then
          base By_cache ~hit:true ~dram_bytes:0 ~dram_txns:0
            ~dram_critical:false
        else
          let evicted = Cache.evicted code and dirty = Cache.dirty code in
          let line = (Cache.params c).Params.c_line in
          (* clean evictions feed the victim buffer *)
          let clean = if dirty then -1 else evicted in
          match t.victim with
          | Some v
            when Victim_cache.recover v ~evicted:clean
                   ~line:(addr lsr t.line_bits) ->
            (* conflict miss recovered on-chip: swap back, no DRAM *)
            t.k.n_victim_hit <- t.k.n_victim_hit + 1;
            {
              (base By_cache ~hit:true ~dram_bytes:0 ~dram_txns:0
                 ~dram_critical:false)
              with
              extra_latency = (Victim_cache.params v).Params.v_latency;
              extra_energy = Energy_model.victim_probe;
            }
          | victim_opt -> (
            let probe_energy =
              if victim_opt <> None then Energy_model.victim_probe else 0.0
            in
            let wb = if dirty then line else 0 in
            match t.l2 with
            | None ->
              {
                (base By_cache ~hit:false ~dram_bytes:(line + wb)
                   ~dram_txns:(if dirty then 2 else 1)
                   ~dram_critical:true)
                with
                extra_energy = probe_energy;
              }
            | Some l2 ->
              t.k.n_l2_access <- t.k.n_l2_access + 1;
              let txns =
                l2_fill l2 ~line_bits:t.line_bits ~addr ~evicted ~dirty
              in
              let hit = txns <= 0 and txns = abs txns in
              if hit then t.k.n_l2_hit <- t.k.n_l2_hit + 1;
              {
                (base By_cache ~hit
                   ~dram_bytes:(txns * (Cache.params l2).Params.c_line)
                   ~dram_txns:txns ~dram_critical:(not hit))
                with
                l2_bytes = line + wb;
                l2_txns = (if dirty then 2 else 1);
                l2_critical = true;
                extra_energy =
                  probe_energy
                  +. Energy_model.cache_access (Cache.params l2) ~write:false;
              }))
      | None -> (
        (* no cache: direct off-chip access, optionally through the
           posted-write buffer *)
        match t.wbuf with
        | Some wb ->
          let line16 = addr / 16 in
          if write then (
            match Write_buffer.write wb ~now ~line:line16 with
            | `Absorbed | `Coalesced ->
              {
                (base By_dram_direct ~hit:false ~dram_bytes:size ~dram_txns:1
                   ~dram_critical:false)
                with
                extra_energy = Energy_model.write_buffer_access;
              }
            | `Stall ->
              t.k.n_wbuf_stall <- t.k.n_wbuf_stall + 1;
              base By_dram_direct ~hit:false ~dram_bytes:size ~dram_txns:1
                ~dram_critical:true)
          else if Write_buffer.read_forward wb ~now ~line:line16 then
            {
              (base By_dram_direct ~hit:true ~dram_bytes:0 ~dram_txns:0
                 ~dram_critical:false)
              with
              extra_energy = Energy_model.write_buffer_access;
            }
          else
            base By_dram_direct ~hit:false ~dram_bytes:size ~dram_txns:1
              ~dram_critical:true
        | None ->
          base By_dram_direct ~hit:false ~dram_bytes:size ~dram_txns:1
            ~dram_critical:true))
  in
  record t o.serving ~size ~o;
  o

type stats = {
  accesses : int;
  on_chip_hits : int;
  demand_misses : int;
  dram_bytes_total : int;
  cpu_bytes : serving -> int;
  cpu_accesses : serving -> int;
  dram_bytes_by : serving -> int;
  dram_txns_by : serving -> int;
  demand_misses_by : serving -> int;
  victim_hits : int;
  wbuf_stalls : int;
  l2_accesses : int;
  l2_hits : int;
  l2_bytes_total : int;
  l2_txns_total : int;
}

let snapshot_counters k =
  let cpu = Array.copy k.cpu_acc and dr = Array.copy k.dram_acc in
  let cnt = Array.copy k.cpu_cnt and txn = Array.copy k.dram_txn in
  let mis = Array.copy k.miss_cnt in
  {
    accesses = k.n_access;
    on_chip_hits = k.n_hit;
    demand_misses = k.n_demand_miss;
    dram_bytes_total = k.dram_total;
    cpu_bytes = (fun s -> cpu.(serving_index s));
    cpu_accesses = (fun s -> cnt.(serving_index s));
    dram_bytes_by = (fun s -> dr.(serving_index s));
    dram_txns_by = (fun s -> txn.(serving_index s));
    demand_misses_by = (fun s -> mis.(serving_index s));
    victim_hits = k.n_victim_hit;
    wbuf_stalls = k.n_wbuf_stall;
    l2_accesses = k.n_l2_access;
    l2_hits = k.n_l2_hit;
    l2_bytes_total = k.l2_bytes_acc;
    l2_txns_total = k.l2_txns_acc;
  }

let snapshot t = snapshot_counters t.k

let run t trace =
  let i = ref 0 in
  Mx_trace.Trace.iter_packed trace ~f:(fun ~addr ~size ~kind ~region ->
      let write = kind = Mx_trace.Access.Write in
      ignore (access t ~now:!i ~addr ~size ~write ~region);
      incr i);
  snapshot t

(* -- many architectures over one trace ------------------------------------

   [access] sends each access, by its region's binding, to exactly one
   of four module groups: the cache path (the cache with its victim
   buffer and L2, or the write buffer when there is no cache), the
   scratchpad, the stream buffer and the LLDMA.  The groups share no
   state, [now] is the global access index, [access] never touches the
   DRAM model, and every counter is an integer sum.  So a profile is the
   field-by-field sum of its groups' profiles, and a group's profile
   depends only on the [group] key below: the parameters of its modules
   and the regions bound to it.  Two groups hold no state at all, so
   their profiles follow from their accesses' count and bytes. *)

(* The groups [access] serves through a module simulator of their own. *)
type routed =
  | Buffered of Params.write_buffer
  | Streamed of Params.stream_buffer
  | Chased of Params.lldma

type group_modules =
  | Cached of {
      cache : Params.cache;
      victim : Params.victim option;
      l2 : Params.cache option;
    }
  | Scratchpad (* every access an on-chip hit *)
  | Direct (* no cache nor write buffer: every access one DRAM burst *)
  | Routed of routed

type group = { modules : group_modules; members : bool array }

(* The group of [arch] that serves [binding]; [None] when no region is
   bound to it. *)
let group_of (arch : Mem_arch.t) binding =
  let members = Array.map (( = ) binding) arch.Mem_arch.bindings in
  if not (Array.mem true members) then None
  else
    let modules =
      match binding with
      | Mem_arch.To_cache -> (
        match (arch.Mem_arch.cache, arch.Mem_arch.wbuf) with
        | Some cache, _ ->
          Cached { cache; victim = arch.Mem_arch.victim; l2 = arch.Mem_arch.l2 }
        | None, Some wbuf -> Routed (Buffered wbuf)
        | None, None -> Direct)
      | Mem_arch.To_sram -> Scratchpad
      | Mem_arch.To_sbuf -> Routed (Streamed (Option.get arch.Mem_arch.sbuf))
      | Mem_arch.To_lldma -> Routed (Chased (Option.get arch.Mem_arch.lldma))
    in
    Some { modules; members }

let groups_of arch =
  List.filter_map (group_of arch)
    Mem_arch.[ To_cache; To_sram; To_sbuf; To_lldma ]

(* Ascending indices of the accesses bound to [members], and their
   total size in bytes. *)
let member_accesses members trace =
  let _, metas = Mx_trace.Trace.backing trace in
  let bound i =
    let region = Mx_trace.Trace.meta_region metas.(i) in
    if region >= Array.length members then
      invalid_arg "Mem_sim.run_all: region id outside binding table";
    members.(region)
  in
  let n = Mx_trace.Trace.length trace in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if bound i then incr count
  done;
  let idx = Array.make !count 0 and j = ref 0 and bytes = ref 0 in
  for i = 0 to n - 1 do
    if bound i then begin
      idx.(!j) <- i;
      bytes := !bytes + Mx_trace.Trace.meta_size metas.(i);
      incr j
    end
  done;
  (idx, !bytes)

(* A stateless group's profile from its [n] accesses of [bytes] in all,
   the counters [access] would have recorded one access at a time. *)
let counted modules ~n ~bytes =
  let k = zero_counters () in
  let on_chip = modules = Scratchpad in
  let i = serving_index (if on_chip then By_sram else By_dram_direct) in
  k.cpu_acc.(i) <- bytes;
  k.cpu_cnt.(i) <- n;
  k.n_access <- n;
  if on_chip then k.n_hit <- n
  else begin
    k.dram_acc.(i) <- bytes;
    k.dram_txn.(i) <- n;
    k.n_demand_miss <- n;
    k.miss_cnt.(i) <- n;
    k.dram_total <- bytes
  end;
  k

(* One pass of a routed group over its accesses, on a simulator that
   holds only the group's module; [arch] supplies the bindings. *)
let run_group arch routed trace idx =
  let t = bare arch in
  let t =
    match routed with
    | Buffered p -> { t with wbuf = Some (Write_buffer.create p) }
    | Streamed p -> { t with sbuf = Some (Stream_buffer.create p) }
    | Chased p -> { t with lldma = Some (Lldma.create p) }
  in
  let addrs, metas = Mx_trace.Trace.backing trace in
  Array.iter
    (fun i ->
      let meta = metas.(i) in
      ignore
        (access t ~now:i ~addr:addrs.(i)
           ~size:(Mx_trace.Trace.meta_size meta)
           ~write:(Mx_trace.Trace.meta_kind meta = Mx_trace.Access.Write)
           ~region:(Mx_trace.Trace.meta_region meta)))
    idx;
  t.k

(* -- cache families --------------------------------------------------------

   The cache-path groups with one L1 and one region set form a family
   whose members, the variants, differ only in their victim buffer and
   L2.  Neither acts on the L1: a victim hit swaps back a line the L1
   already filled on the miss, and the non-inclusive L2 never writes
   into the L1.  So the L1's (hit, writeback, evicted line) sequence is
   the same in every variant, and since neither the victim buffer nor
   the L2 reads [now], a variant's own state is a function of that miss
   sequence.  A family therefore runs its L1 once and does each
   module's distinct work once:

   - a victim buffer sees only the L1's misses, so the variants with
     one victim parameter share one buffer, fed each miss in lock-step;
   - each variant with an L2 runs its own, on every L1 miss or, behind
     a victim buffer, on that buffer's misses;
   - every counter is an integer sum, so the rest is counted: the
     family counts the L1's misses and dirty misses from its lookup
     codes and each buffer's hits from its [recover] results, an
     L2-less variant's profile follows from those counts, and an L2
     variant counts only its L2 hits and DRAM bursts per access. *)

let by_cache = serving_index By_cache

type l2_variant = {
  l2 : Cache.t;
  behind : int; (* the victim buffer in front of it; -1 for none *)
  mutable l2_hits : int;
  mutable l2_bursts : int;
}

(* A variant's profile from its family's counts: [n] accesses of [bytes]
   in all, [misses] L1 misses of which [dirty] wrote back, and [vhits]
   of those recovered by the victim buffer, [vhits_dirty] of them on a
   dirty miss.  The misses [past] the buffer go to the L2 when there is
   one, and otherwise each is a demand miss bursting its line, plus the
   evicted line when dirty. *)
let family_profile ~n ~bytes ~line ~misses ~dirty ~vhits ~vhits_dirty l2 =
  let k = zero_counters () in
  let past = misses - vhits and past_dirty = dirty - vhits_dirty in
  let l2_hits, bursts, burst_bytes =
    match l2 with
    | None -> (0, past + past_dirty, line)
    | Some v ->
      k.n_l2_access <- past;
      k.n_l2_hit <- v.l2_hits;
      k.l2_bytes_acc <- line * (past + past_dirty);
      k.l2_txns_acc <- past + past_dirty;
      (v.l2_hits, v.l2_bursts, (Cache.params v.l2).Params.c_line)
  in
  k.cpu_acc.(by_cache) <- bytes;
  k.cpu_cnt.(by_cache) <- n;
  k.n_access <- n;
  k.n_hit <- n - misses + vhits + l2_hits;
  k.n_victim_hit <- vhits;
  k.n_demand_miss <- past - l2_hits;
  k.miss_cnt.(by_cache) <- past - l2_hits;
  k.dram_acc.(by_cache) <- bursts * burst_bytes;
  k.dram_txn.(by_cache) <- bursts;
  k.dram_total <- bursts * burst_bytes;
  k

(* One L1 pass of a family over its accesses, [bytes] in all; the
   variants' profiles, in order.  On each L1 miss every victim buffer
   takes the clean evicted line and is then probed for the missed one,
   and every L2 the buffer in front of it missed serves the miss.  The
   lookup codes and [recover] results give the family's counts. *)
let run_family cache variants trace (idx, bytes) =
  let l1 = Cache.create cache in
  let line = cache.Params.c_line in
  let line_bits = Params.log2i line in
  let victims =
    Array.of_list (List.sort_uniq compare (List.filter_map fst variants))
  in
  let buffer = function
    | None -> -1
    | Some v -> Option.get (Array.find_index (( = ) v) victims)
  in
  let bufs = Array.map Victim_cache.create victims in
  let vhit = Array.make (Array.length bufs) false
  and vhits = Array.make (Array.length bufs) 0
  and vhits_dirty = Array.make (Array.length bufs) 0 in
  let misses = ref 0 and dirty_misses = ref 0 in
  let routes =
    List.map
      (fun (victim, l2) ->
        let behind = buffer victim in
        ( behind,
          Option.map
            (fun p ->
              { l2 = Cache.create p; behind; l2_hits = 0; l2_bursts = 0 })
            l2 ))
      variants
  in
  let l2s = Array.of_list (List.filter_map snd routes) in
  let addrs, metas = Mx_trace.Trace.backing trace in
  for j = 0 to Array.length idx - 1 do
    let i = idx.(j) in
    let addr = addrs.(i) in
    let code =
      Cache.lookup l1 ~addr
        ~write:(Mx_trace.Trace.meta_kind metas.(i) = Mx_trace.Access.Write)
    in
    if code <> Cache.hit then begin
      let evicted = Cache.evicted code and dirty = Cache.dirty code in
      let clean = if dirty then -1 else evicted and missed = addr lsr line_bits in
      incr misses;
      if dirty then incr dirty_misses;
      for b = 0 to Array.length bufs - 1 do
        let h = Victim_cache.recover bufs.(b) ~evicted:clean ~line:missed in
        vhit.(b) <- h;
        if h then begin
          vhits.(b) <- vhits.(b) + 1;
          if dirty then vhits_dirty.(b) <- vhits_dirty.(b) + 1
        end
      done;
      for v = 0 to Array.length l2s - 1 do
        let x = l2s.(v) in
        if x.behind < 0 || not vhit.(x.behind) then begin
          let bursts = l2_fill x.l2 ~line_bits ~addr ~evicted ~dirty in
          if bursts <= 0 then x.l2_hits <- x.l2_hits + 1;
          x.l2_bursts <- x.l2_bursts + abs bursts
        end
      done
    end
  done;
  let n = Array.length idx and misses = !misses and dirty = !dirty_misses in
  List.map
    (fun (b, l2) ->
      let vhits, vhits_dirty =
        if b < 0 then (0, 0) else (vhits.(b), vhits_dirty.(b))
      in
      family_profile ~n ~bytes ~line ~misses ~dirty ~vhits ~vhits_dirty l2)
    routes

let run_all archs ~regions trace =
  List.iter (fun a -> check_regions a regions) archs;
  (* distinct groups, each with the first architecture that has it *)
  let slots = Hashtbl.create 256 in
  let slot arch g =
    match Hashtbl.find_opt slots g with
    | Some (s, _) -> s
    | None ->
      let s = Hashtbl.length slots in
      Hashtbl.add slots g (s, arch);
      s
  in
  let arch_slots = List.map (fun a -> List.map (slot a) (groups_of a)) archs in
  let profiles = Array.make (Hashtbl.length slots) (zero_counters ()) in
  (* one job per family and per other group, each over the accesses
     bound to its region set *)
  let families = Hashtbl.create 64 and jobs = ref [] in
  let job members run = jobs := (members, run) :: !jobs in
  Hashtbl.iter
    (fun g (s, arch) ->
      match g.modules with
      | Cached { cache; victim; l2 } ->
        let key = (cache, g.members) in
        let vs = Option.value (Hashtbl.find_opt families key) ~default:[] in
        Hashtbl.replace families key ((s, (victim, l2)) :: vs)
      | (Scratchpad | Direct) as m ->
        job g.members (fun (idx, bytes) ->
            profiles.(s) <- counted m ~n:(Array.length idx) ~bytes)
      | Routed r ->
        job g.members (fun (idx, _) ->
            profiles.(s) <- run_group arch r trace idx))
    slots;
  Hashtbl.iter
    (fun (cache, members) vs ->
      job members (fun bound ->
          List.iter2
            (fun (s, _) k -> profiles.(s) <- k)
            vs
            (run_family cache (List.map snd vs) trace bound)))
    families;
  (* sorted by region set, so one member index is alive at a time *)
  let current = ref ([||], ([||], 0)) in
  List.iter
    (fun (members, run) ->
      if fst !current <> members then
        current := (members, member_accesses members trace);
      run (snd !current))
    (List.stable_sort (fun (a, _) (b, _) -> compare a b) !jobs);
  List.map
    (fun ss ->
      let k = zero_counters () in
      List.iter (fun s -> add_counters ~into:k profiles.(s)) ss;
      snapshot_counters k)
    arch_slots

let miss_ratio s =
  if s.accesses = 0 then 0.0
  else float_of_int s.demand_misses /. float_of_int s.accesses
