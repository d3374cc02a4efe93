module Mem_sim = Mx_mem.Mem_sim
module Mem_arch = Mx_mem.Mem_arch
module Params = Mx_mem.Params
module Channel = Mx_connect.Channel
module Component = Mx_connect.Component
module Conn_arch = Mx_connect.Conn_arch
module Conn_cost = Mx_connect.Conn_cost
module Trace = Mx_trace.Trace
module Trace_stream = Mx_trace.Trace_stream
module Workload = Mx_trace.Workload

let default_sample = (1000, 9000)

type cpu_model = Blocking | Overlap of int

type bus_stat = {
  component : string;
  carries : string;
  txns : int;
  busy_cycles : int;
  wait_cycles : int;
  utilization : float;
}

(* A routed leg: which component instance carries a channel and whether
   it is shared (contended). *)
type leg = { comp : Component.t; idx : int; contended : bool }

let route bindings (src : Channel.node) (dst : Channel.node) =
  let probe = { Channel.src; dst; bandwidth = 0.0; txn_bytes = 0.0 } in
  let rec go i = function
    | [] -> None
    | (b : Conn_arch.binding) :: rest ->
      if
        List.exists (Channel.same_endpoints probe)
          b.Conn_arch.cluster.Mx_connect.Cluster.channels
      then
        Some
          {
            comp = b.Conn_arch.component;
            idx = i;
            contended =
              List.length b.Conn_arch.cluster.Mx_connect.Cluster.channels > 1;
          }
      else go (i + 1) rest
  in
  go 0 bindings

(* The demand (CPU-blocking) share of an access's off-chip traffic is
   critical-word-first (see {!Serving.critical_bytes}); the simulator
   sizes the LLDMA leg from the observed transfer and falls back to the
   access size when a class has no backing module. *)
let critical_bytes arch serving (o : Mem_sim.outcome) ~size =
  if not o.Mem_sim.dram_critical then 0
  else
    Serving.critical_bytes arch serving ~lldma_bytes:o.Mem_sim.dram_bytes
      ~fallback:size

(* Sampling as (on, period): an access is timed when its index modulo
   the period is below [on].  Exact replay is one endless window. *)
let window_of = function
  | None -> (max_int, max_int)
  | Some (on, off) ->
    if on <= 0 || off < 0 then
      invalid_arg "Cycle_sim.run: bad sampling windows";
    (on, on + off)

let check_cpu = function
  | Overlap n when n <= 0 ->
    invalid_arg "Cycle_sim.run: Overlap needs at least 1 MSHR"
  | Blocking | Overlap _ -> ()

(* Does chunk [first, first+len) intersect any "on" window of the
   (on, off) sampling pattern?  Windows repeat with period p = on+off;
   the chunk misses them all only when it sits entirely inside one off
   span. *)
let chunk_has_on_window ~on ~off ~first ~len =
  let p = on + off in
  let r = first mod p in
  r < on || len > p - r

(* -- stage 1: record -------------------------------------------------------

   Everything the timing model reads about an access, except the
   connectivity's own state, depends only on the architecture, the
   workload and the sampling pattern: [Mem_sim.access] takes the access
   index as [now], the DRAM row-buffer model is called at the same
   accesses whatever the connectivity (in an on-window once per critical
   fill and once per background transfer, in an off-window once per
   access with DRAM traffic), and the compute gap before an access
   follows from the workload's ops-per-access rate and the access index
   alone.  A recorder runs all three once and keeps, per on-window
   access, the id of its distinct outcome tuple, and per tuple the
   number of on-window accesses that have it. *)

type outcome = {
  serving : Mem_sim.serving;
  size : int;  (** CPU-side bytes *)
  write : bool;
  dram_bytes : int;
  dram_txns : int;
  crit : int;  (** the CPU-blocking share of [dram_bytes] *)
  l2_bytes : int;
  extra_latency : int;
  extra_energy : float;
  dram_latency : int;  (** row-buffer latency of the critical fill, or 0 *)
  gap : int;  (** compute cycles the CPU spends before the access *)
}

type recorder = {
  arch : Mem_arch.t;
  msim : Mem_sim.t;
  on : int;
  period : int;
  rate : float;  (** CPU ops per access *)
  mutable ops_acc : float;
      (** the fraction the compute-gap recurrence carries over *)
  mutable slots : int array;
      (** open-addressing index over [outcomes]: id + 1, or 0 when free *)
  mutable outcomes : outcome array;
  mutable hashes : int array;  (** [hash_outcome] of each outcome *)
  mutable counts : int array;  (** on-window accesses of each outcome *)
  mutable n_outcomes : int;
  mutable ids : Bytes.t;  (** one id per on-window access *)
  mutable width : int;  (** bytes per id: 1, 2, 4 or 8 *)
  mutable n_ids : int;
}

let get_id ids width j =
  if width = 1 then Char.code (Bytes.unsafe_get ids j)
  else if width = 2 then Bytes.get_uint16_le ids (2 * j)
  else if width = 4 then
    Int32.to_int (Bytes.get_int32_le ids (4 * j)) land 0xffff_ffff
  else Int64.to_int (Bytes.get_int64_le ids (8 * j))

let set_id ids width j id =
  if width = 1 then Bytes.unsafe_set ids j (Char.unsafe_chr id)
  else if width = 2 then Bytes.set_uint16_le ids (2 * j) id
  else if width = 4 then Bytes.set_int32_le ids (4 * j) (Int32.of_int id)
  else Bytes.set_int64_le ids (8 * j) (Int64.of_int id)

let recorder ?sample ~arch ~regions ~accesses ~cpu_ops () =
  let on, period = window_of sample in
  {
    arch;
    msim = Mem_sim.create arch ~regions;
    on;
    period;
    rate =
      (if accesses = 0 then 0.0
       else float_of_int cpu_ops /. float_of_int accesses);
    ops_acc = 0.0;
    slots = Array.make 64 0;
    outcomes = [||];
    hashes = [||];
    counts = [||];
    n_outcomes = 0;
    ids = Bytes.create 256;
    width = 1;
    n_ids = 0;
  }

let hash_outcome (o : Mem_sim.outcome) ~size ~write ~crit ~dram_latency ~gap =
  let mix h v = (h * 0x2f0b3d29) lxor v in
  let h = mix (Serving.index o.Mem_sim.serving) size in
  let h = mix h (Bool.to_int write) in
  let h = mix h o.Mem_sim.dram_bytes in
  let h = mix h o.Mem_sim.dram_txns in
  let h = mix h crit in
  let h = mix h o.Mem_sim.l2_bytes in
  let h = mix h o.Mem_sim.extra_latency in
  let h = mix h (Int64.to_int (Int64.bits_of_float o.Mem_sim.extra_energy)) in
  let h = mix h dram_latency in
  let h = mix h gap in
  h lxor (h lsr 29)

(* bitwise on the float: interning must be lossless *)
let same_outcome u (o : Mem_sim.outcome) ~size ~write ~crit ~dram_latency
    ~gap =
  u.serving = o.Mem_sim.serving
  && u.size = size && u.write = write
  && u.dram_bytes = o.Mem_sim.dram_bytes
  && u.dram_txns = o.Mem_sim.dram_txns
  && u.crit = crit
  && u.l2_bytes = o.Mem_sim.l2_bytes
  && u.extra_latency = o.Mem_sim.extra_latency
  && u.dram_latency = dram_latency
  && u.gap = gap
  && Int64.equal
       (Int64.bits_of_float u.extra_energy)
       (Int64.bits_of_float o.Mem_sim.extra_energy)

(* The id of the outcome tuple of [o], added when new.  Allocates only
   for a new tuple. *)
let intern r (o : Mem_sim.outcome) ~size ~write ~crit ~dram_latency ~gap =
  let h = hash_outcome o ~size ~write ~crit ~dram_latency ~gap in
  let mask = Array.length r.slots - 1 in
  let rec probe k =
    let s = r.slots.(k) in
    if s = 0 then add k
    else if
      same_outcome r.outcomes.(s - 1) o ~size ~write ~crit ~dram_latency ~gap
    then s - 1
    else probe ((k + 1) land mask)
  and add k =
    let id = r.n_outcomes in
    let u =
      {
        serving = o.Mem_sim.serving;
        size;
        write;
        dram_bytes = o.Mem_sim.dram_bytes;
        dram_txns = o.Mem_sim.dram_txns;
        crit;
        l2_bytes = o.Mem_sim.l2_bytes;
        extra_latency = o.Mem_sim.extra_latency;
        extra_energy = o.Mem_sim.extra_energy;
        dram_latency;
        gap;
      }
    in
    if id = Array.length r.outcomes then begin
      let cap = max 16 (2 * id) in
      let grow a fill = Array.init cap (fun i -> if i < id then a.(i) else fill) in
      r.outcomes <- grow r.outcomes u;
      r.hashes <- grow r.hashes 0;
      r.counts <- grow r.counts 0
    end;
    r.outcomes.(id) <- u;
    r.hashes.(id) <- h;
    r.n_outcomes <- id + 1;
    r.slots.(k) <- id + 1;
    (* keep the index at most half full *)
    if 2 * r.n_outcomes > mask then begin
      let slots = Array.make (2 * (mask + 1)) 0 in
      let mask = Array.length slots - 1 in
      for i = 0 to id do
        let rec free k =
          if slots.(k) = 0 then k else free ((k + 1) land mask)
        in
        slots.(free (r.hashes.(i) land mask)) <- i + 1
      done;
      r.slots <- slots
    end;
    id
  in
  probe (h land mask)

(* Append one id, widening every stored id when [id] no longer fits. *)
let push_id r id =
  let width =
    if id < 0x100 then 1
    else if id < 0x1_0000 then 2
    else if id < 0x1_0000_0000 then 4
    else 8
  in
  if width > r.width || (r.n_ids + 1) * r.width > Bytes.length r.ids then begin
    let width = max width r.width in
    let ids = Bytes.create (2 * (r.n_ids + 1) * width) in
    for j = 0 to r.n_ids - 1 do
      set_id ids width j (get_id r.ids r.width j)
    done;
    r.ids <- ids;
    r.width <- width
  end;
  set_id r.ids r.width r.n_ids id;
  r.n_ids <- r.n_ids + 1

(* Route accesses [off, off+len) of the packed arrays, global indices
   from [first], through the modules and the DRAM model. *)
let record_span r ~addrs ~metas ~off ~len ~first =
  let dram = Mem_sim.dram r.msim in
  let rate = r.rate and ops_acc = ref r.ops_acc in
  let phase = ref (first mod r.period) in
  for k = off to off + len - 1 do
    (* interleaved compute cycles, advanced on- and off-window *)
    ops_acc := !ops_acc +. rate;
    let gap = int_of_float !ops_acc in
    ops_acc := !ops_acc -. float_of_int gap;
    let addr = addrs.(k) and meta = metas.(k) in
    let size = Trace.meta_size meta in
    let write = Trace.meta_kind meta = Mx_trace.Access.Write in
    let o =
      Mem_sim.access r.msim ~now:(first + k - off) ~addr ~size ~write
        ~region:(Trace.meta_region meta)
    in
    if !phase < r.on then begin
      let sv = o.Mem_sim.serving in
      let crit = critical_bytes r.arch sv o ~size in
      let dram_latency =
        if o.Mem_sim.dram_bytes > 0 then begin
          let lat = if crit > 0 then Mx_mem.Dram.access dram ~addr else 0 in
          if o.Mem_sim.dram_bytes - crit > 0 then
            ignore (Mx_mem.Dram.access dram ~addr);
          lat
        end
        else 0
      in
      let id = intern r o ~size ~write ~crit ~dram_latency ~gap in
      r.counts.(id) <- r.counts.(id) + 1;
      push_id r id
    end
    else if o.Mem_sim.dram_bytes > 0 then
      (* off window: keep the row buffers warm, no timing *)
      ignore (Mx_mem.Dram.access dram ~addr);
    incr phase;
    if !phase = r.period then phase := 0
  done;
  r.ops_acc <- !ops_acc

(* A skipped span must still advance the compute-gap recurrence, so the
   accesses that ARE recorded get the same gaps as in a full pass.
   Same float ops per access as [record_span]. *)
let fast_forward r ~len =
  let ops_acc = ref r.ops_acc and rate = r.rate in
  for _ = 1 to len do
    ops_acc := !ops_acc +. rate;
    let gap = int_of_float !ops_acc in
    ops_acc := !ops_acc -. float_of_int gap
  done;
  r.ops_acc <- !ops_acc

type column = {
  c_arch : Mem_arch.t;
  c_sample : (int * int) option;
  c_accesses : int;
  c_outcomes : outcome array;
  c_counts : int array;  (** on-window accesses of each outcome *)
  c_ids : Bytes.t;
  c_width : int;
  c_miss_ratio : float;
  c_dram_bytes : int;
}

let record ?sample ~(workload : Workload.t) ~arch () =
  let trace = workload.Workload.trace in
  let n = Trace.length trace in
  let r =
    recorder ?sample ~arch ~regions:workload.Workload.regions ~accesses:n
      ~cpu_ops:workload.Workload.cpu_ops ()
  in
  let addrs, metas = Trace.backing trace in
  (* room for every on-window id at one byte each *)
  r.ids <- Bytes.create (((n / r.period) * r.on) + min r.on (n mod r.period));
  record_span r ~addrs ~metas ~off:0 ~len:n ~first:0;
  let mstats = Mem_sim.snapshot r.msim in
  {
    c_arch = arch;
    c_sample = sample;
    c_accesses = n;
    c_outcomes = Array.sub r.outcomes 0 r.n_outcomes;
    c_counts = Array.sub r.counts 0 r.n_outcomes;
    c_ids =
      (if Bytes.length r.ids = r.n_ids * r.width then r.ids
       else Bytes.sub r.ids 0 (r.n_ids * r.width));
    c_width = r.width;
    c_miss_ratio = Mem_sim.miss_ratio mstats;
    c_dram_bytes = mstats.Mem_sim.dram_bytes_total;
  }

let distinct_outcomes c = Array.length c.c_outcomes

let footprint c =
  Bytes.length c.c_ids
  + (Obj.reachable_words (Obj.repr c.c_outcomes)
     + Obj.reachable_words (Obj.repr c.c_counts))
    * (Sys.word_size / 8)

(* -- stage 2: time ---------------------------------------------------------

   One pass times K connectivities of a column together, access by
   access.  Each distinct outcome becomes one shared row, of the fields
   that depend on the architecture alone, and one row per connectivity,
   of its routed legs, their transaction latencies and occupancies and
   its energy addends; all are built once per pass.  [Component] and
   [Conn_cost] are pure, so a row field is the value the per-access
   call would have returned.

   The channel check stays lazy: a column holds outcomes of timed
   (on-window) accesses only, with ids in order of first appearance,
   so the first row of a connectivity that needs a missing channel
   belongs to the first on-window access that needs it, and building
   that row raises the error that access would have raised.  Rows are
   built one connectivity after the other, so when several miss a
   channel, the first in the pass's order raises. *)

(* Rows are flat, one block per outcome: [iblock t] ints in [ri] and
   [fblock t] energy addends in [rf].  A block opens with the shared
   row, [sstride] ints and [sfstride] addends that depend on the
   architecture alone, followed by one row per connectivity, so the K
   rows of one outcome are adjacent: connectivity [c]'s row of outcome
   [id] starts at [id * iblock t + sstride + c * cstride] (and likewise
   in [rf]). *)
let sstride = 4

let s_gap = 0
let s_mem = 1 (* module latency plus extra latency *)
let s_dram_lat = 2 (* row-buffer latency of the critical fill, or 0 *)
let s_flags = 3

(* the bits of [s_flags] *)
let fl_l2 = 1 (* L1<->L2 traffic *)
let fl_bg_m = 2 (* the L2 leg carries background bytes *)
let fl_dram = 4 (* DRAM traffic *)
let fl_direct = 8 (* a direct access: the DRAM leg is the CPU leg *)
let fl_critical = 16 (* a critical fill *)
let fl_bg = 32 (* background DRAM bytes *)

let sfstride = 3

let f_dram = 0
let f_module = 1
let f_extra = 2

(* A connectivity's row.  A binding field holds the offset of the
   binding's free time in the pass's state array; its wait total
   follows it. *)
let cstride = 13

let c_l1 = 0 (* CPU-side binding *)
let c_lat1 = 1
let c_occ1 = 2
let c_hold1 = 3 (* mask of the miss path the CPU-side component is held
                   for: -1, or 0 when it is split-transaction *)
let c_lm = 4 (* L1<->L2 binding *)
let c_lat_m = 5 (* L2 leg latency plus the L2's access latency *)
let c_occ_m = 6
let c_occ_bg_m = 7 (* occupancy of the L2 leg's background bytes, or 0 *)
let c_d = 8 (* the binding carrying the DRAM traffic *)
let c_occ2 = 9
let c_hold2 = 10 (* [occ2] plus the DRAM latency when not split *)
let c_lat2 = 11 (* leg latency plus the DRAM latency *)
let c_occ_bg = 12 (* occupancy of the background DRAM bytes, or 0 *)

(* A timed access adds, in this order, [f_l2], then [f_dram] and
   [f_dram_bus], then [f_module], [f_extra] and [f_cpu_bus]. *)
let cfstride = 3

let f_l2 = 0
let f_dram_bus = 1
let f_cpu_bus = 2

(* One connectivity's routing tables per serving class, and where its
   bindings' slots start in the state array. *)
type routes = {
  bindings : Conn_arch.binding list;
  base : int;
  nbind : int;
  cpu_leg : leg option array;
  dram_leg : leg option array;
  l2_leg : leg option;
}

(* The evolving state of a pass is one int array: the clock of each
   connectivity, then a (free time, wait total) pair per binding;
   [acc] holds the matching (busy cycles, transactions) pairs. *)
type timer = {
  t_arch : Mem_arch.t;
  slots : int;  (** MSHRs per connectivity, 0 for a blocking CPU *)
  k : int;  (** connectivities *)
  routes : routes array;
  mshrs : int array;  (** [slots] per connectivity *)
  st : int array;
  acc : int array;
  energy : float array;  (** per connectivity *)
  mutable ri : int array;
  mutable rf : float array;
  mutable rows : int;  (** outcomes with rows *)
  mutable sampled : int;
  mutable gaps : int;  (** compute cycles before the timed accesses *)
}

let iblock t = sstride + (t.k * cstride)
let fblock t = sfstride + (t.k * cfstride)

(* with an L2 the cache's off-chip traffic flows Cache -> L2 -> DRAM *)
let routes_of ~arch ~base (conn : Conn_arch.t) =
  let bindings = conn.Conn_arch.bindings in
  let has_l2 = arch.Mem_arch.l2 <> None in
  let cpu_leg = Array.make 5 None and dram_leg = Array.make 5 None in
  List.iter
    (fun sv ->
      let node = Serving.node_of sv in
      let i = Serving.index sv in
      cpu_leg.(i) <- route bindings Channel.Cpu node;
      if node <> Channel.Dram then
        let dram_src =
          if sv = Mem_sim.By_cache && has_l2 then Channel.L2 else node
        in
        dram_leg.(i) <- route bindings dram_src Channel.Dram)
    Serving.all;
  {
    bindings;
    base;
    nbind = max 1 (List.length bindings);
    cpu_leg;
    dram_leg;
    l2_leg = (if has_l2 then route bindings Channel.Cache Channel.L2 else None);
  }

let timer ~cpu ~arch conns =
  check_cpu cpu;
  let k = List.length conns in
  let len = ref k in
  let routes =
    Array.of_list
      (List.map
         (fun conn ->
           let r = routes_of ~arch ~base:!len conn in
           len := !len + (2 * r.nbind);
           r)
         conns)
  in
  let slots = match cpu with Overlap n -> n | Blocking -> 0 in
  {
    t_arch = arch;
    slots;
    k;
    routes;
    mshrs = Array.make (k * slots) 0;
    st = Array.make !len 0;
    acc = Array.make !len 0;
    energy = Array.make k 0.0;
    ri = [||];
    rf = [||];
    rows = 0;
    sampled = 0;
    gaps = 0;
  }

let missing node =
  invalid_arg
    (Printf.sprintf
       "Cycle_sim.run: connectivity does not implement the %s channel"
       (Channel.node_to_string node))

(* A leg's slot in the state array, checked against its connectivity's
   bindings: the timing loop indexes the state unchecked. *)
let binding r (l : leg) =
  if l.idx < 0 || l.idx >= r.nbind then
    invalid_arg "Cycle_sim.run: leg routed outside the bindings";
  r.base + (2 * l.idx)

(* Write the shared row of outcome [o], [id]. *)
let build_shared t (o : outcome) id =
  let arch = t.t_arch and sv = o.serving in
  let s = id * iblock t and sf = id * fblock t in
  let bit cond fl = if cond then fl else 0 in
  let dram = o.dram_bytes > 0 in
  t.ri.(s + s_gap) <- o.gap;
  t.ri.(s + s_mem) <- Serving.module_latency arch sv + o.extra_latency;
  t.ri.(s + s_dram_lat) <- o.dram_latency;
  t.ri.(s + s_flags) <-
    bit (o.l2_bytes > 0) fl_l2
    lor bit (o.l2_bytes > 8) fl_bg_m
    lor bit dram fl_dram
    lor bit (dram && sv = Mem_sim.By_dram_direct) fl_direct
    lor bit (dram && o.crit > 0) fl_critical
    lor bit (dram && o.dram_bytes - o.crit > 0) fl_bg;
  if dram then
    t.rf.(sf + f_dram) <-
      Mx_mem.Energy_model.dram_traffic ~txns:o.dram_txns ~bytes:o.dram_bytes;
  t.rf.(sf + f_module) <- Serving.module_energy arch sv ~write:o.write;
  t.rf.(sf + f_extra) <- o.extra_energy

(* Write connectivity [c]'s row of outcome [o], [id]. *)
let build_row t c (o : outcome) id =
  let r = t.routes.(c) in
  let sv = o.serving and k = Serving.index o.serving in
  let direct = sv = Mem_sim.By_dram_direct in
  match r.cpu_leg.(k) with
  | None -> missing (Serving.node_of sv)
  | Some _ when o.l2_bytes > 0 && r.l2_leg = None ->
    invalid_arg
      "Cycle_sim.run: connectivity does not implement the cache<->L2 channel"
  | Some _ when o.dram_bytes > 0 && (not direct) && r.dram_leg.(k) = None ->
    missing (Serving.node_of sv)
  | Some l1 ->
    let ri = t.ri and rf = t.rf in
    let b = (id * iblock t) + sstride + (c * cstride)
    and e = (id * fblock t) + sfstride + (c * cfstride) in
    ri.(b + c_l1) <- binding r l1;
    ri.(b + c_lat1) <-
      Component.txn_latency l1.comp ~bytes:o.size ~contended:l1.contended;
    ri.(b + c_occ1) <- Component.occupancy l1.comp ~bytes:o.size;
    ri.(b + c_hold1) <- (if l1.comp.Component.split_txn then 0 else -1);
    (match r.l2_leg with
    | Some lm when o.l2_bytes > 0 ->
      let crit_m = min 8 o.l2_bytes in
      let bg_m = o.l2_bytes - crit_m in
      let l2_lat =
        match t.t_arch.Mem_arch.l2 with Some c -> c.Params.c_latency | None -> 0
      in
      ri.(b + c_lm) <- binding r lm;
      ri.(b + c_lat_m) <-
        Component.txn_latency lm.comp ~bytes:crit_m ~contended:lm.contended
        + l2_lat;
      ri.(b + c_occ_m) <- Component.occupancy lm.comp ~bytes:crit_m;
      if bg_m > 0 then
        ri.(b + c_occ_bg_m) <- Component.occupancy lm.comp ~bytes:bg_m;
      rf.(e + f_l2) <-
        float_of_int o.l2_bytes *. Conn_cost.energy_per_byte lm.comp
    | _ -> ());
    if o.dram_bytes > 0 then begin
      let leg = if direct then l1 else Option.get r.dram_leg.(k) in
      let crit = o.crit and bg = o.dram_bytes - o.crit in
      let occ2 =
        if crit > 0 then Component.occupancy leg.comp ~bytes:crit else 0
      in
      ri.(b + c_d) <- binding r leg;
      ri.(b + c_occ2) <- occ2;
      ri.(b + c_hold2) <-
        (occ2 + if leg.comp.Component.split_txn then 0 else o.dram_latency);
      ri.(b + c_lat2) <-
        (if crit > 0 then
           Component.txn_latency leg.comp ~bytes:crit ~contended:leg.contended
         else 0)
        + o.dram_latency;
      if bg > 0 then
        ri.(b + c_occ_bg) <- Component.occupancy leg.comp ~bytes:bg;
      rf.(e + f_dram_bus) <-
        float_of_int o.dram_bytes *. Conn_cost.energy_per_byte leg.comp
    end;
    rf.(e + f_cpu_bus) <-
      float_of_int o.size *. Conn_cost.energy_per_byte l1.comp

(* Make rows exist for the first [n] outcomes: the shared rows, then
   each connectivity's rows in turn. *)
let build_rows t outcomes n =
  if n > t.rows then begin
    if n * iblock t > Array.length t.ri then begin
      let cap = max n (2 * t.rows) in
      let grow a len zero =
        let g = Array.make len zero in
        Array.blit a 0 g 0 (Array.length a);
        g
      in
      t.ri <- grow t.ri (cap * iblock t) 0;
      t.rf <- grow t.rf (cap * fblock t) 0.0
    end;
    for id = t.rows to n - 1 do
      build_shared t outcomes.(id) id
    done;
    for c = 0 to t.k - 1 do
      for id = t.rows to n - 1 do
        build_row t c outcomes.(id) id
      done
    done;
    t.rows <- n
  end

let imax (a : int) b = if a >= b then a else b

let[@inline] ( .%() ) (a : int array) i = Array.unsafe_get a i
let[@inline] ( .%()<- ) (a : int array) i v = Array.unsafe_set a i v
let[@inline] ( .@() ) (a : float array) i = Array.unsafe_get a i
let[@inline] ( .@()<- ) (a : float array) i v = Array.unsafe_set a i v

(* Park connectivity [c]'s miss in its MSHR that frees first (lowest
   index on ties); the CPU stalls only until that slot is free.  Out of
   line, so the timing loop keeps its registers for the common path. *)
let[@inline never] park t c ~now ~on_chip ~miss_path =
  let mshrs = t.mshrs and base = c * t.slots in
  let slot = ref base in
  for s = base + 1 to base + t.slots - 1 do
    if mshrs.(s) < mshrs.(!slot) then slot := s
  done;
  let stall = imax 0 (mshrs.(!slot) - now) in
  mshrs.(!slot) <- now + stall + on_chip + miss_path;
  on_chip + stall

(* One timed access with a miss path (an L2 leg or DRAM traffic), whose
   shared row starts at [s] in [t.ri] and [sf] in [t.rf], under every
   connectivity of the pass (see [time_ids]).  Out of line, so the
   on-chip loop keeps its registers. *)
let[@inline never] time_miss t ~s ~sf =
  let ri = t.ri and rf = t.rf and st = t.st and energy = t.energy in
  let gap = ri.%(s + s_gap) and mem = ri.%(s + s_mem) in
  let flags = ri.%(s + s_flags) and dram_lat = ri.%(s + s_dram_lat) in
  let e_module = rf.@(sf + f_module) and e_extra = rf.@(sf + f_extra) in
  let e_dram = rf.@(sf + f_dram) in
  for c = 0 to t.k - 1 do
    let b = s + sstride + (c * cstride) and e = sf + sfstride + (c * cfstride) in
    let l1 = ri.%(b + c_l1) and lat1 = ri.%(b + c_lat1) in
    let now = st.%(c) + gap in
    let start1 = imax now st.%(l1) in
    let wait1 = start1 - now in
    st.%(l1 + 1) <- st.%(l1 + 1) + wait1;
    let miss_path = ref 0 in
    (* the L1<->L2 leg comes first on an L1 miss when an L2 exists *)
    if flags land fl_l2 <> 0 then begin
      let lm = ri.%(b + c_lm) in
      let t_req = now + wait1 + lat1 in
      let start_m = imax t_req st.%(lm) in
      let wait_m = start_m - t_req in
      st.%(lm) <- start_m + ri.%(b + c_occ_m);
      st.%(lm + 1) <- st.%(lm + 1) + wait_m;
      if flags land fl_bg_m <> 0 then
        st.%(lm) <- imax st.%(lm) now + ri.%(b + c_occ_bg_m);
      miss_path := wait_m + ri.%(b + c_lat_m);
      energy.@(c) <- energy.@(c) +. rf.@(e + f_l2)
    end;
    (* off-chip leg: a direct access rides its CPU channel, the others
       go through their module's DRAM channel *)
    if flags land fl_dram <> 0 then begin
      let d = ri.%(b + c_d) in
      if flags land fl_critical <> 0 then begin
        if flags land fl_direct <> 0 then miss_path := dram_lat
        else begin
          let t_req = now + wait1 + lat1 + !miss_path in
          let start2 = imax t_req st.%(d) in
          let wait2 = start2 - t_req in
          st.%(d) <- start2 + ri.%(b + c_hold2);
          st.%(d + 1) <- st.%(d + 1) + wait2;
          miss_path := !miss_path + wait2 + ri.%(b + c_lat2)
        end
      end;
      if flags land fl_bg <> 0 then
        (* prefetch/writeback traffic occupies the off-chip leg without
           stalling the CPU *)
        st.%(d) <- imax st.%(d) now + ri.%(b + c_occ_bg);
      (* off-chip energy: DRAM core (per burst) + pad/bus switching *)
      energy.@(c) <- energy.@(c) +. e_dram +. rf.@(e + f_dram_bus)
    end;
    (* hold a non-split CPU-side component for the whole miss *)
    st.%(l1) <- start1 + ri.%(b + c_occ1) + (!miss_path land ri.%(b + c_hold1));
    let on_chip = wait1 + lat1 + mem in
    let latency =
      if t.slots = 0 then on_chip + !miss_path
      else if !miss_path = 0 then on_chip
      else park t c ~now ~on_chip ~miss_path:!miss_path
    in
    st.%(c) <- now + latency;
    energy.@(c) <- energy.@(c) +. e_module +. e_extra +. rf.@(e + f_cpu_bus)
  done

(* Time [n] timed accesses whose outcome ids are [ids], in order, under
   every connectivity of the pass.  Each id and its shared row are read
   once per access, and the flags decide once whether the access is
   served on chip (the loop below, with no miss-path work) or takes
   [time_miss].  Each connectivity then reads only its own row and
   updates only its own state (its clock, the free times and waits of
   its bindings, its MSHRs and its energy) with the integer and float
   operations of a one-connectivity pass, in the same order.
   [add_totals] derives busy cycles, transactions and compute gaps from
   the per-outcome counts, and [finish] the total latency and wait from
   the clocks and the waits.  Neither loop allocates.

   Rows and the state are read unchecked ([.%()], [.@()]): every id is
   below [t.rows] (a column's ids index its own outcome table, whose
   rows are all built before timing; a streamed chunk's rows are built
   before the chunk is timed), and [binding] checked every leg's slot
   when its row was built. *)
let time_ids t ids width ~n =
  let ri = t.ri and rf = t.rf and st = t.st and energy = t.energy in
  let k = t.k in
  let ib = iblock t and fb = fblock t in
  for j = 0 to n - 1 do
    (* one-byte ids, the common case, without a call *)
    let id =
      if width = 1 then Char.code (Bytes.unsafe_get ids j)
      else get_id ids width j
    in
    let s = id * ib and sf = id * fb in
    if ri.%(s + s_flags) land (fl_l2 lor fl_dram) = 0 then begin
      (* served on chip: no miss path, whatever the CPU model *)
      let gap = ri.%(s + s_gap) and mem = ri.%(s + s_mem) in
      let e_module = rf.@(sf + f_module) and e_extra = rf.@(sf + f_extra) in
      for c = 0 to k - 1 do
        let b = s + sstride + (c * cstride) in
        let l1 = ri.%(b + c_l1) in
        let now = st.%(c) + gap in
        let start1 = imax now st.%(l1) in
        let wait1 = start1 - now in
        st.%(l1 + 1) <- st.%(l1 + 1) + wait1;
        st.%(l1) <- start1 + ri.%(b + c_occ1);
        st.%(c) <- now + wait1 + ri.%(b + c_lat1) + mem;
        energy.@(c) <-
          energy.@(c) +. e_module +. e_extra
          +. rf.@(sf + sfstride + (c * cfstride) + f_cpu_bus)
      done
    end
    else time_miss t ~s ~sf
  done;
  t.sampled <- t.sampled + n

(* Busy cycles, transactions and compute gaps: every timed access adds
   constants of its rows to them, so each outcome adds
   [count * constant]. *)
let add_totals t counts n =
  let ri = t.ri and acc = t.acc in
  let add p ~c ~busy ~txns =
    acc.(p) <- acc.(p) + (c * busy);
    acc.(p + 1) <- acc.(p + 1) + (c * txns)
  in
  for id = 0 to n - 1 do
    let cnt = counts.(id) and s = id * iblock t in
    let flags = ri.(s + s_flags) in
    t.gaps <- t.gaps + (cnt * ri.(s + s_gap));
    for c = 0 to t.k - 1 do
      let b = s + sstride + (c * cstride) in
      add ri.(b + c_l1) ~c:cnt ~busy:ri.(b + c_occ1) ~txns:1;
      if flags land fl_l2 <> 0 then
        add ri.(b + c_lm) ~c:cnt
          ~busy:(ri.(b + c_occ_m) + ri.(b + c_occ_bg_m))
          ~txns:(if flags land fl_bg_m <> 0 then 2 else 1);
      if flags land fl_dram <> 0 then begin
        let d = ri.(b + c_d) in
        if flags land (fl_critical lor fl_direct) = fl_critical then
          add d ~c:cnt ~busy:ri.(b + c_occ2) ~txns:1;
        if flags land fl_bg <> 0 then
          add d ~c:cnt ~busy:ri.(b + c_occ_bg) ~txns:1
      end
    done
  done

(* Connectivity [c]'s result and bus statistics. *)
let finish t c ~accesses ~exact ~miss_ratio ~dram_bytes =
  let r = t.routes.(c) and now = t.st.(c) in
  (* the clock advanced by each timed access's gap and latency, and
     every wait is some bus's *)
  let total_lat = now - t.gaps in
  let total_wait = ref 0 in
  for i = 0 to r.nbind - 1 do
    total_wait := !total_wait + t.st.(r.base + (2 * i) + 1)
  done;
  let total_wait = !total_wait in
  let sampled = max 1 t.sampled in
  let avg_lat = float_of_int total_lat /. float_of_int sampled in
  let scale = float_of_int accesses /. float_of_int sampled in
  (* routing statistics are exact even when sampling: the module state
     saw every access *)
  let result =
    {
      Sim_result.accesses;
      cycles = int_of_float (float_of_int now *. scale);
      total_mem_latency = total_lat;
      avg_mem_latency = avg_lat;
      avg_energy_nj = t.energy.(c) /. float_of_int sampled;
      miss_ratio;
      bus_wait_cycles = total_wait;
      dram_bytes;
      exact;
    }
  in
  let total_cycles = max 1 now in
  let stats =
    List.mapi
      (fun i (b : Conn_arch.binding) ->
        let p = r.base + (2 * i) in
        {
          component = b.Conn_arch.component.Component.name;
          carries = Mx_connect.Cluster.describe b.Conn_arch.cluster;
          txns = t.acc.(p + 1);
          busy_cycles = t.acc.(p);
          wait_cycles = t.st.(p + 1);
          utilization = float_of_int t.acc.(p) /. float_of_int total_cycles;
        })
      r.bindings
  in
  (* One registry deposit per timed connectivity, from whichever domain
     ran it: the per-access loop never touches the registry. *)
  (if Mx_util.Metrics.is_on Mx_util.Metrics.global then begin
     let m = Mx_util.Metrics.global in
     Mx_util.Metrics.incr m "cycle_sim.runs";
     Mx_util.Metrics.incr m ~by:accesses "cycle_sim.accesses";
     Mx_util.Metrics.incr m ~by:t.sampled "cycle_sim.sampled_accesses";
     Mx_util.Metrics.incr m ~by:total_wait "cycle_sim.stall_cycles";
     Mx_util.Metrics.incr m ~by:total_cycles "cycle_sim.cycles";
     Mx_util.Metrics.observe m ~unit_:"cycles" "cycle_sim.avg_mem_latency"
       avg_lat;
     List.iter
       (fun (s : bus_stat) ->
         let pre = "cycle_sim.bus." ^ s.component ^ "." in
         Mx_util.Metrics.incr m ~by:s.txns (pre ^ "txns");
         Mx_util.Metrics.incr m ~by:s.busy_cycles (pre ^ "busy_cycles");
         Mx_util.Metrics.incr m ~by:s.wait_cycles (pre ^ "wait_cycles"))
       stats
   end);
  (result, stats)

let time_many ?(cpu = Blocking) c conns =
  let t = timer ~cpu ~arch:c.c_arch conns in
  if t.k = 0 then []
  else begin
    let rows = Array.length c.c_outcomes in
    build_rows t c.c_outcomes rows;
    time_ids t c.c_ids c.c_width ~n:(Bytes.length c.c_ids / c.c_width);
    add_totals t c.c_counts rows;
    List.init t.k (fun i ->
        finish t i ~accesses:c.c_accesses ~exact:(c.c_sample = None)
          ~miss_ratio:c.c_miss_ratio ~dram_bytes:c.c_dram_bytes)
  end

let time_traced ?cpu c ~conn = List.hd (time_many ?cpu c [ conn ])
let time ?cpu c ~conn = fst (time_traced ?cpu c ~conn)

(* -- entry points ---------------------------------------------------------- *)

let run_traced ?sample ?(cpu = Blocking) ~workload ~arch ~conn () =
  ignore (window_of sample);
  check_cpu cpu;
  time_traced ~cpu (record ?sample ~workload ~arch ()) ~conn

let run ?sample ?cpu ~workload ~arch ~conn () =
  fst (run_traced ?sample ?cpu ~workload ~arch ~conn ())

(* Record and time one chunk at a time, so memory stays constant in the
   trace length: the recorder's id buffer is reused chunk after chunk,
   the timer grows its rows as new outcomes appear, and the recorder's
   per-outcome counts give the bus totals after the last chunk. *)
let run_stream_traced ?sample ?(cpu = Blocking) ?(seek = false)
    ~(workload : Workload.streamed) ~arch ~conn () =
  ignore (window_of sample);
  if seek && sample = None then
    invalid_arg "Cycle_sim.run_stream: ~seek requires ~sample";
  check_cpu cpu;
  let stream = workload.Workload.s_stream in
  let n = Trace_stream.length stream in
  let r =
    recorder ?sample ~arch ~regions:workload.Workload.s_regions ~accesses:n
      ~cpu_ops:workload.Workload.s_cpu_ops ()
  in
  let t = timer ~cpu ~arch [ conn ] in
  for ci = 0 to Trace_stream.chunk_count stream - 1 do
    let first = Trace_stream.chunk_start stream ci in
    let len = Trace_stream.chunk_length stream ci in
    let skip =
      seek
      &&
      match sample with
      | Some (on, off) -> not (chunk_has_on_window ~on ~off ~first ~len)
      | None -> false
    in
    if skip then fast_forward r ~len
    else begin
      let c = Trace_stream.get_chunk stream ci in
      r.n_ids <- 0;
      record_span r ~addrs:c.Trace_stream.c_addrs ~metas:c.Trace_stream.c_metas
        ~off:c.Trace_stream.c_off ~len ~first;
      build_rows t r.outcomes r.n_outcomes;
      time_ids t r.ids r.width ~n:r.n_ids
    end
  done;
  add_totals t r.counts r.n_outcomes;
  let mstats = Mem_sim.snapshot r.msim in
  finish t 0 ~accesses:n ~exact:(sample = None)
    ~miss_ratio:(Mem_sim.miss_ratio mstats)
    ~dram_bytes:mstats.Mem_sim.dram_bytes_total

let run_stream ?sample ?cpu ?seek ~workload ~arch ~conn () =
  fst (run_stream_traced ?sample ?cpu ?seek ~workload ~arch ~conn ())

let record_utilization_gauges ?(registry = Mx_util.Metrics.global) () =
  let snap = Mx_util.Metrics.snapshot registry in
  let cycles =
    List.assoc_opt "cycle_sim.cycles" snap.Mx_util.Metrics.counters
    |> Option.value ~default:0
  in
  if cycles > 0 then
    List.iter
      (fun (name, busy) ->
        let pre = "cycle_sim.bus." and suf = ".busy_cycles" in
        let pl = String.length pre and sl = String.length suf in
        let l = String.length name in
        if
          l > pl + sl
          && String.sub name 0 pl = pre
          && String.sub name (l - sl) sl = suf
        then
          let comp = String.sub name pl (l - pl - sl) in
          Mx_util.Metrics.set_gauge registry
            ("cycle_sim.bus." ^ comp ^ ".utilization")
            (float_of_int busy /. float_of_int cycles))
      snap.Mx_util.Metrics.counters
