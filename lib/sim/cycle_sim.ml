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

   Each distinct outcome becomes one row, built once per connectivity:
   the compute gap, the routed legs, their transaction latencies and
   occupancies, and the energy terms.  [Component] and [Conn_cost] are
   pure, so a row field is the value the per-access call would have
   returned.

   The channel check stays lazy: a column holds outcomes of timed
   (on-window) accesses only, with ids in order of first appearance,
   so the first row that needs a missing channel belongs to the first
   on-window access that needs it, and building that row raises the
   error that access would have raised. *)

(* Rows are flat: [stride] ints per outcome in [ri] and [fstride]
   energy addends per outcome in [rf], at offsets [id * stride] and
   [id * fstride]. *)
let stride = 16

let r_gap = 0
let r_l1 = 1 (* CPU-side binding *)
let r_lat1 = 2
let r_occ1 = 3
let r_lm = 4 (* L1<->L2 binding, or -1 without L2 traffic *)
let r_lat_m = 5 (* L2 leg latency plus the L2's access latency *)
let r_occ_m = 6
let r_occ_bg_m = 7 (* occupancy of the L2 leg's background bytes, or 0 *)
let r_d = 8 (* the binding carrying the DRAM traffic *)
let r_occ2 = 9
let r_hold2 = 10 (* [occ2] plus the DRAM latency when not split *)
let r_lat2 = 11 (* leg latency plus the DRAM latency *)
let r_dram_lat = 12
let r_occ_bg = 13 (* occupancy of the background DRAM bytes, or 0 *)
let r_mem = 14 (* module latency plus extra latency *)
let r_flags = 15

(* the bits of [r_flags] *)
let fl_split1 = 1 (* the CPU-side component is split-transaction *)
let fl_bg_m = 2 (* the L2 leg carries background bytes *)
let fl_dram = 4 (* DRAM traffic, over [r_d] *)
let fl_direct = 8 (* a direct access: the DRAM leg is the CPU leg *)
let fl_critical = 16 (* a critical fill *)
let fl_bg = 32 (* background DRAM bytes *)

(* the energy addends, summed in this order *)
let fstride = 6

let e_l2 = 0
let e_dram = 1
let e_dram_bus = 2
let e_module = 3
let e_extra = 4
let e_cpu_bus = 5

type timer = {
  t_arch : Mem_arch.t;
  overlap : bool;
  mshrs : int array;
  bindings : Conn_arch.binding list;
  cpu_leg : leg option array;
  dram_leg : leg option array;
  l2_leg : leg option;
  busy : int array;  (** per binding, like the three below *)
  busy_acc : int array;
  wait_acc : int array;
  txn_acc : int array;
  mutable ri : int array;
  mutable rf : float array;
  mutable rows : int;  (** rows built *)
  mutable now : int;
  mutable sampled : int;
  mutable gaps : int;  (** compute cycles before the timed accesses *)
  mutable energy : float;
}

let timer ~cpu ~arch ~conn =
  check_cpu cpu;
  let bindings = (conn : Conn_arch.t).Conn_arch.bindings in
  let nbind = max 1 (List.length bindings) in
  (* routing tables per serving class; with an L2 the cache's off-chip
     traffic flows Cache -> L2 -> DRAM *)
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
    t_arch = arch;
    overlap = (match cpu with Overlap _ -> true | Blocking -> false);
    mshrs = (match cpu with Overlap n -> Array.make n 0 | Blocking -> [||]);
    bindings;
    cpu_leg;
    dram_leg;
    l2_leg = (if has_l2 then route bindings Channel.Cache Channel.L2 else None);
    busy = Array.make nbind 0;
    busy_acc = Array.make nbind 0;
    wait_acc = Array.make nbind 0;
    txn_acc = Array.make nbind 0;
    ri = [||];
    rf = [||];
    rows = 0;
    now = 0;
    sampled = 0;
    gaps = 0;
    energy = 0.0;
  }

let missing node =
  invalid_arg
    (Printf.sprintf
       "Cycle_sim.run: connectivity does not implement the %s channel"
       (Channel.node_to_string node))

(* A leg's binding index, checked against the per-binding arrays: the
   timing loop indexes them unchecked. *)
let binding t (l : leg) =
  if l.idx < 0 || l.idx >= Array.length t.busy then
    invalid_arg "Cycle_sim.run: leg routed outside the bindings";
  l.idx

(* Write row [id], the row of outcome [o]. *)
let build_row t (o : outcome) id =
  let arch = t.t_arch in
  let sv = o.serving and k = Serving.index o.serving in
  let direct = sv = Mem_sim.By_dram_direct in
  match t.cpu_leg.(k) with
  | None -> missing (Serving.node_of sv)
  | Some _ when o.l2_bytes > 0 && t.l2_leg = None ->
    invalid_arg
      "Cycle_sim.run: connectivity does not implement the cache<->L2 channel"
  | Some _ when o.dram_bytes > 0 && (not direct) && t.dram_leg.(k) = None ->
    missing (Serving.node_of sv)
  | Some l1 ->
    let ri = t.ri and rf = t.rf in
    let b = id * stride and e = id * fstride in
    let flags = ref (if l1.comp.Component.split_txn then fl_split1 else 0) in
    ri.(b + r_gap) <- o.gap;
    ri.(b + r_l1) <- binding t l1;
    ri.(b + r_lat1) <-
      Component.txn_latency l1.comp ~bytes:o.size ~contended:l1.contended;
    ri.(b + r_occ1) <- Component.occupancy l1.comp ~bytes:o.size;
    ri.(b + r_lm) <- -1;
    ri.(b + r_mem) <- Serving.module_latency arch sv + o.extra_latency;
    (match t.l2_leg with
    | Some lm when o.l2_bytes > 0 ->
      let crit_m = min 8 o.l2_bytes in
      let bg_m = o.l2_bytes - crit_m in
      let l2_lat =
        match arch.Mem_arch.l2 with Some c -> c.Params.c_latency | None -> 0
      in
      ri.(b + r_lm) <- binding t lm;
      ri.(b + r_lat_m) <-
        Component.txn_latency lm.comp ~bytes:crit_m ~contended:lm.contended
        + l2_lat;
      ri.(b + r_occ_m) <- Component.occupancy lm.comp ~bytes:crit_m;
      if bg_m > 0 then begin
        flags := !flags lor fl_bg_m;
        ri.(b + r_occ_bg_m) <- Component.occupancy lm.comp ~bytes:bg_m
      end;
      rf.(e + e_l2) <-
        float_of_int o.l2_bytes *. Conn_cost.energy_per_byte lm.comp
    | _ -> ());
    if o.dram_bytes > 0 then begin
      let leg = if direct then l1 else Option.get t.dram_leg.(k) in
      let crit = o.crit and bg = o.dram_bytes - o.crit in
      let occ2 =
        if crit > 0 then Component.occupancy leg.comp ~bytes:crit else 0
      in
      flags := !flags lor fl_dram;
      if direct then flags := !flags lor fl_direct;
      if crit > 0 then flags := !flags lor fl_critical;
      ri.(b + r_d) <- binding t leg;
      ri.(b + r_occ2) <- occ2;
      ri.(b + r_hold2) <-
        (occ2 + if leg.comp.Component.split_txn then 0 else o.dram_latency);
      ri.(b + r_lat2) <-
        (if crit > 0 then
           Component.txn_latency leg.comp ~bytes:crit ~contended:leg.contended
         else 0)
        + o.dram_latency;
      ri.(b + r_dram_lat) <- o.dram_latency;
      if bg > 0 then begin
        flags := !flags lor fl_bg;
        ri.(b + r_occ_bg) <- Component.occupancy leg.comp ~bytes:bg
      end;
      rf.(e + e_dram) <-
        Mx_mem.Energy_model.dram_traffic ~txns:o.dram_txns ~bytes:o.dram_bytes;
      rf.(e + e_dram_bus) <-
        float_of_int o.dram_bytes *. Conn_cost.energy_per_byte leg.comp
    end;
    rf.(e + e_module) <- Serving.module_energy arch sv ~write:o.write;
    rf.(e + e_extra) <- o.extra_energy;
    rf.(e + e_cpu_bus) <-
      float_of_int o.size *. Conn_cost.energy_per_byte l1.comp;
    ri.(b + r_flags) <- !flags

(* Make rows exist for the first [n] outcomes. *)
let build_rows t outcomes n =
  if n > t.rows then begin
    if n * stride > Array.length t.ri then begin
      let cap = max n (2 * t.rows) in
      let grow a len zero =
        let g = Array.make len zero in
        Array.blit a 0 g 0 (Array.length a);
        g
      in
      t.ri <- grow t.ri (cap * stride) 0;
      t.rf <- grow t.rf (cap * fstride) 0.0
    end;
    for id = t.rows to n - 1 do
      build_row t outcomes.(id) id
    done;
    t.rows <- n
  end

let imax (a : int) b = if a >= b then a else b

let[@inline] ( .%() ) (a : int array) i = Array.unsafe_get a i
let[@inline] ( .%()<- ) (a : int array) i v = Array.unsafe_set a i v

(* Park a miss in the MSHR that frees first (lowest index on ties); the
   CPU stalls only until that slot is free.  Out of line, so the timing
   loop keeps its registers for the common path. *)
let[@inline never] park mshrs ~now ~on_chip ~miss_path =
  let slot = ref 0 in
  for s = 1 to Array.length mshrs - 1 do
    if mshrs.(s) < mshrs.(!slot) then slot := s
  done;
  let stall = imax 0 (mshrs.(!slot) - now) in
  mshrs.(!slot) <- now + stall + on_chip + miss_path;
  on_chip + stall

(* Time [n] timed accesses whose outcome ids are [ids], in order.  Only
   the state that evolves lives here: the clock, the per-bus free times
   and waits, and energy.  [add_totals] derives busy cycles,
   transactions and compute gaps from the per-outcome counts, and
   [finish] the total latency and wait from the clock and the per-bus
   waits.  The state lives in locals for the loop and goes back to [t]
   at the end, so the loop allocates nothing.

   Rows and per-bus arrays are read unchecked ([.%()]): every id is
   below [t.rows] (a column's ids index its own outcome table, whose
   rows are all built before timing; a streamed chunk's rows are built
   before the chunk is timed), and [binding] checked every leg's index
   against the per-bus arrays when its row was built. *)
let time_span t ids width ~n =
  let ri = t.ri and rf = t.rf and busy = t.busy and wait_acc = t.wait_acc in
  let mshrs = t.mshrs and overlap = t.overlap in
  let now = ref t.now and energy = ref t.energy in
  for j = 0 to n - 1 do
    (* one-byte ids, the common case, without a call *)
    let id =
      if width = 1 then Char.code (Bytes.unsafe_get ids j)
      else get_id ids width j
    in
    let b = id * stride and e = id * fstride in
    let flags = ri.%(b + r_flags) in
    now := !now + ri.%(b + r_gap);
    let l1 = ri.%(b + r_l1) and lat1 = ri.%(b + r_lat1) in
    let start1 = imax !now busy.%(l1) in
    let wait1 = start1 - !now in
    wait_acc.%(l1) <- wait_acc.%(l1) + wait1;
    let miss_path = ref 0 in
    (* the L1<->L2 leg comes first on an L1 miss when an L2 exists *)
    let lm = ri.%(b + r_lm) in
    if lm >= 0 then begin
      let t_req = !now + wait1 + lat1 in
      let start_m = imax t_req busy.%(lm) in
      let wait_m = start_m - t_req in
      busy.%(lm) <- start_m + ri.%(b + r_occ_m);
      wait_acc.%(lm) <- wait_acc.%(lm) + wait_m;
      if flags land fl_bg_m <> 0 then
        busy.%(lm) <- imax busy.%(lm) !now + ri.%(b + r_occ_bg_m);
      miss_path := wait_m + ri.%(b + r_lat_m);
      energy := !energy +. Array.unsafe_get rf (e + e_l2)
    end;
    (* off-chip leg: a direct access rides its CPU channel, the others
       go through their module's DRAM channel *)
    if flags land fl_dram <> 0 then begin
      let d = ri.%(b + r_d) in
      if flags land fl_critical <> 0 then begin
        if flags land fl_direct <> 0 then miss_path := ri.%(b + r_dram_lat)
        else begin
          let t_req = !now + wait1 + lat1 + !miss_path in
          let start2 = imax t_req busy.%(d) in
          let wait2 = start2 - t_req in
          busy.%(d) <- start2 + ri.%(b + r_hold2);
          wait_acc.%(d) <- wait_acc.%(d) + wait2;
          miss_path := !miss_path + wait2 + ri.%(b + r_lat2)
        end
      end;
      if flags land fl_bg <> 0 then
        (* prefetch/writeback traffic occupies the off-chip leg
           without stalling the CPU *)
        busy.%(d) <- imax busy.%(d) !now + ri.%(b + r_occ_bg);
      (* off-chip energy: DRAM core (per burst) + pad/bus switching *)
      energy :=
        !energy
        +. Array.unsafe_get rf (e + e_dram)
        +. Array.unsafe_get rf (e + e_dram_bus)
    end;
    (* hold a non-split CPU-side component for the whole miss *)
    busy.%(l1) <-
      start1 + ri.%(b + r_occ1)
      + if flags land fl_split1 <> 0 then 0 else !miss_path;
    let on_chip = wait1 + lat1 + ri.%(b + r_mem) in
    let latency =
      if not overlap then on_chip + !miss_path
      else if !miss_path = 0 then on_chip
      else park mshrs ~now:!now ~on_chip ~miss_path:!miss_path
    in
    now := !now + latency;
    energy :=
      !energy
      +. Array.unsafe_get rf (e + e_module)
      +. Array.unsafe_get rf (e + e_extra)
      +. Array.unsafe_get rf (e + e_cpu_bus)
  done;
  t.now <- !now;
  t.sampled <- t.sampled + n;
  t.energy <- !energy

(* Busy cycles, transactions and compute gaps: every timed access adds
   constants of its row to them, so each outcome adds
   [count * constant]. *)
let add_totals t counts n =
  let ri = t.ri in
  let add i ~c ~busy ~txns =
    t.busy_acc.(i) <- t.busy_acc.(i) + (c * busy);
    t.txn_acc.(i) <- t.txn_acc.(i) + (c * txns)
  in
  for id = 0 to n - 1 do
    let c = counts.(id) and b = id * stride in
    let flags = ri.(b + r_flags) in
    t.gaps <- t.gaps + (c * ri.(b + r_gap));
    add ri.(b + r_l1) ~c ~busy:ri.(b + r_occ1) ~txns:1;
    let lm = ri.(b + r_lm) in
    if lm >= 0 then
      add lm ~c
        ~busy:(ri.(b + r_occ_m) + ri.(b + r_occ_bg_m))
        ~txns:(if flags land fl_bg_m <> 0 then 2 else 1);
    if flags land fl_dram <> 0 then begin
      let d = ri.(b + r_d) in
      if flags land (fl_critical lor fl_direct) = fl_critical then
        add d ~c ~busy:ri.(b + r_occ2) ~txns:1;
      if flags land fl_bg <> 0 then add d ~c ~busy:ri.(b + r_occ_bg) ~txns:1
    end
  done

let finish t ~accesses ~exact ~miss_ratio ~dram_bytes =
  (* the clock advanced by each timed access's gap and latency, and
     every wait is some bus's *)
  let total_lat = t.now - t.gaps in
  let total_wait = Array.fold_left ( + ) 0 t.wait_acc in
  let sampled = max 1 t.sampled in
  let avg_lat = float_of_int total_lat /. float_of_int sampled in
  let scale = float_of_int accesses /. float_of_int sampled in
  (* routing statistics are exact even when sampling: the module state
     saw every access *)
  let result =
    {
      Sim_result.accesses;
      cycles = int_of_float (float_of_int t.now *. scale);
      total_mem_latency = total_lat;
      avg_mem_latency = avg_lat;
      avg_energy_nj = t.energy /. float_of_int sampled;
      miss_ratio;
      bus_wait_cycles = total_wait;
      dram_bytes;
      exact;
    }
  in
  let total_cycles = max 1 t.now in
  let stats =
    List.mapi
      (fun idx (b : Conn_arch.binding) ->
        {
          component = b.Conn_arch.component.Component.name;
          carries = Mx_connect.Cluster.describe b.Conn_arch.cluster;
          txns = t.txn_acc.(idx);
          busy_cycles = t.busy_acc.(idx);
          wait_cycles = t.wait_acc.(idx);
          utilization =
            float_of_int t.busy_acc.(idx) /. float_of_int total_cycles;
        })
      t.bindings
  in
  (* One registry deposit per timing, from whichever domain ran it: the
     per-access loop never touches the registry. *)
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

let time_traced ?(cpu = Blocking) c ~conn =
  let t = timer ~cpu ~arch:c.c_arch ~conn in
  let rows = Array.length c.c_outcomes in
  build_rows t c.c_outcomes rows;
  time_span t c.c_ids c.c_width ~n:(Bytes.length c.c_ids / c.c_width);
  add_totals t c.c_counts rows;
  finish t ~accesses:c.c_accesses ~exact:(c.c_sample = None)
    ~miss_ratio:c.c_miss_ratio ~dram_bytes:c.c_dram_bytes

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
  let t = timer ~cpu ~arch ~conn in
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
      time_span t r.ids r.width ~n:r.n_ids
    end
  done;
  add_totals t r.counts r.n_outcomes;
  let mstats = Mem_sim.snapshot r.msim in
  finish t ~accesses:n ~exact:(sample = None)
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
