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
        let r = Cache.access c ~addr ~write in
        let line = (Cache.params c).Params.c_line in
        (* clean evictions feed the victim buffer *)
        (match (t.victim, r.Cache.evicted_line) with
        | Some v, Some el when not r.Cache.writeback ->
          Victim_cache.insert v ~line:el
        | _ -> ());
        if r.Cache.hit then
          base By_cache ~hit:true ~dram_bytes:0 ~dram_txns:0
            ~dram_critical:false
        else
          match t.victim with
          | Some v when Victim_cache.probe v ~line:(addr / line) ->
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
            let wb = if r.Cache.writeback then line else 0 in
            match t.l2 with
            | None ->
              {
                (base By_cache ~hit:false ~dram_bytes:(line + wb)
                   ~dram_txns:(if r.Cache.writeback then 2 else 1)
                   ~dram_critical:true)
                with
                extra_energy = probe_energy;
              }
            | Some l2 ->
              let l2_line = (Cache.params l2).Params.c_line in
              t.k.n_l2_access <- t.k.n_l2_access + 1;
              (* the dirty L1 line drains into the L2 *)
              let wb_dram_bytes = ref 0 and wb_dram_txns = ref 0 in
              (match (r.Cache.writeback, r.Cache.evicted_line) with
              | true, Some el ->
                let wr = Cache.access l2 ~addr:(el * line) ~write:true in
                if not wr.Cache.hit then begin
                  wb_dram_bytes := l2_line;
                  incr wb_dram_txns;
                  if wr.Cache.writeback then begin
                    wb_dram_bytes := !wb_dram_bytes + l2_line;
                    incr wb_dram_txns
                  end
                end
              | _ -> ());
              (* demand fill through the L2 *)
              let dr = Cache.access l2 ~addr ~write:false in
              let l2_energy =
                Energy_model.cache_access (Cache.params l2) ~write:false
              in
              if dr.Cache.hit then begin
                t.k.n_l2_hit <- t.k.n_l2_hit + 1;
                {
                  (base By_cache ~hit:true ~dram_bytes:!wb_dram_bytes
                     ~dram_txns:!wb_dram_txns ~dram_critical:false)
                  with
                  l2_bytes = line + wb;
                  l2_txns = (if wb > 0 then 2 else 1);
                  l2_critical = true;
                  extra_energy = probe_energy +. l2_energy;
                }
              end
              else begin
                let dram = ref (l2_line + !wb_dram_bytes)
                and txns = ref (1 + !wb_dram_txns) in
                if dr.Cache.writeback then begin
                  dram := !dram + l2_line;
                  incr txns
                end;
                {
                  (base By_cache ~hit:false ~dram_bytes:!dram ~dram_txns:!txns
                     ~dram_critical:true)
                  with
                  l2_bytes = line + wb;
                  l2_txns = (if wb > 0 then 2 else 1);
                  l2_critical = true;
                  extra_energy = probe_energy +. l2_energy;
                }
              end))
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
   and the regions bound to it. *)

(* The groups [access] serves through a module simulator of their own. *)
type routed =
  | Uncached of Params.write_buffer option
  | Scratchpad of Params.sram
  | Streamed of Params.stream_buffer
  | Chased of Params.lldma

type group_modules =
  | Cached of {
      cache : Params.cache;
      victim : Params.victim option;
      l2 : Params.cache option;
    }
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
        match arch.Mem_arch.cache with
        | Some cache ->
          Cached { cache; victim = arch.Mem_arch.victim; l2 = arch.Mem_arch.l2 }
        | None -> Routed (Uncached arch.Mem_arch.wbuf))
      | Mem_arch.To_sram -> Routed (Scratchpad (Option.get arch.Mem_arch.sram))
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

(* One pass of a routed group over its accesses, on a simulator that
   holds only the group's module; [arch] supplies the bindings. *)
let run_group arch routed trace idx =
  let t = bare arch in
  let t =
    match routed with
    | Uncached wbuf -> { t with wbuf = Option.map Write_buffer.create wbuf }
    | Scratchpad _ -> t
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
   sequence.  A family therefore runs its L1 once and feeds each miss,
   in lock-step, to every variant's victim buffer, L2 and counters.
   The variants count only what follows the L1 lookup; the L1 side
   (CPU bytes and accesses, L1 hits) is counted once and added to each
   at the end. *)

type variant = {
  v_victim : Victim_cache.t option;
  v_l2 : Cache.t option;
  v_k : counters;
}

let by_cache = serving_index By_cache

(* An access whose critical path went off-chip. *)
let demand_miss k ~bytes ~txns =
  k.n_demand_miss <- k.n_demand_miss + 1;
  k.miss_cnt.(by_cache) <- k.miss_cnt.(by_cache) + 1;
  k.dram_acc.(by_cache) <- k.dram_acc.(by_cache) + bytes;
  k.dram_txn.(by_cache) <- k.dram_txn.(by_cache) + txns;
  k.dram_total <- k.dram_total + bytes

(* [access]'s cache path after an L1 miss that evicted line [evicted]
   (-1 for none), [dirty] when it is written back, on one variant: the
   clean evicted line enters the victim buffer before the buffer is
   probed for the missed line, and on the L2 path the dirty L1 line
   drains into the L2 before the demand fill. *)
let variant_miss v ~line ~addr ~evicted ~dirty =
  let k = v.v_k in
  (match v.v_victim with
  | Some vc when evicted >= 0 && not dirty ->
    Victim_cache.insert vc ~line:evicted
  | _ -> ());
  match v.v_victim with
  | Some vc when Victim_cache.probe vc ~line:(addr / line) ->
    k.n_victim_hit <- k.n_victim_hit + 1;
    k.n_hit <- k.n_hit + 1
  | _ -> (
    match v.v_l2 with
    | None ->
      if dirty then demand_miss k ~bytes:(2 * line) ~txns:2
      else demand_miss k ~bytes:line ~txns:1
    | Some l2 ->
      let l2_line = (Cache.params l2).Params.c_line in
      k.n_l2_access <- k.n_l2_access + 1;
      k.l2_bytes_acc <- k.l2_bytes_acc + if dirty then 2 * line else line;
      k.l2_txns_acc <- k.l2_txns_acc + if dirty then 2 else 1;
      (* DRAM bursts of the writeback: a fill on an L2 miss, plus the
         L2's own dirty eviction *)
      let wb_txns =
        if not dirty then 0
        else
          let wr = Cache.lookup l2 ~addr:(evicted * line) ~write:true in
          if wr = Cache.hit then 0 else if Cache.dirty wr then 2 else 1
      in
      let dr = Cache.lookup l2 ~addr ~write:false in
      if dr = Cache.hit then begin
        let bytes = wb_txns * l2_line in
        k.n_l2_hit <- k.n_l2_hit + 1;
        k.n_hit <- k.n_hit + 1;
        k.dram_acc.(by_cache) <- k.dram_acc.(by_cache) + bytes;
        k.dram_txn.(by_cache) <- k.dram_txn.(by_cache) + wb_txns;
        k.dram_total <- k.dram_total + bytes
      end
      else
        let txns = 1 + wb_txns + if Cache.dirty dr then 1 else 0 in
        demand_miss k ~bytes:(txns * l2_line) ~txns)

(* One L1 pass of a family over its accesses, [bytes] in all, feeding
   every miss to each variant in lock-step; the variants' profiles, in
   order. *)
let run_family cache variants trace (idx, bytes) =
  let l1 = Cache.create cache in
  let vs =
    Array.map
      (fun (victim, l2) ->
        {
          v_victim = Option.map Victim_cache.create victim;
          v_l2 = Option.map Cache.create l2;
          v_k = zero_counters ();
        })
      variants
  in
  let line = cache.Params.c_line in
  let addrs, metas = Mx_trace.Trace.backing trace in
  let hits = ref 0 in
  for j = 0 to Array.length idx - 1 do
    let i = idx.(j) in
    let addr = addrs.(i) and meta = metas.(i) in
    let code =
      Cache.lookup l1 ~addr
        ~write:(Mx_trace.Trace.meta_kind meta = Mx_trace.Access.Write)
    in
    if code = Cache.hit then incr hits
    else begin
      let evicted = Cache.evicted code and dirty = Cache.dirty code in
      for v = 0 to Array.length vs - 1 do
        variant_miss vs.(v) ~line ~addr ~evicted ~dirty
      done
    end
  done;
  Array.map
    (fun v ->
      let k = v.v_k in
      k.cpu_acc.(by_cache) <- bytes;
      k.cpu_cnt.(by_cache) <- Array.length idx;
      k.n_access <- Array.length idx;
      k.n_hit <- k.n_hit + !hits;
      k)
    vs

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
  (* one job per family and per routed group, each run over the
     accesses bound to its region set *)
  let families = Hashtbl.create 64 and jobs = ref [] in
  Hashtbl.iter
    (fun g (s, arch) ->
      match g.modules with
      | Cached { cache; victim; l2 } ->
        let key = (cache, g.members) in
        let vs = Option.value (Hashtbl.find_opt families key) ~default:[] in
        Hashtbl.replace families key ((s, (victim, l2)) :: vs)
      | Routed r ->
        jobs :=
          ( g.members,
            fun (idx, _) -> profiles.(s) <- run_group arch r trace idx )
          :: !jobs)
    slots;
  Hashtbl.iter
    (fun (cache, members) vs ->
      let vs = Array.of_list vs in
      jobs :=
        ( members,
          fun bound ->
            Array.iteri
              (fun j k -> profiles.(fst vs.(j)) <- k)
              (run_family cache (Array.map snd vs) trace bound) )
        :: !jobs)
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
