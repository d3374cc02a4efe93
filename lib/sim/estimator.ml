module Mem_sim = Mx_mem.Mem_sim
module Mem_arch = Mx_mem.Mem_arch
module Params = Mx_mem.Params
module Channel = Mx_connect.Channel
module Cluster = Mx_connect.Cluster
module Component = Mx_connect.Component
module Conn_arch = Mx_connect.Conn_arch
module Conn_cost = Mx_connect.Conn_cost

(* Where a serving class's off-chip traffic goes. *)
type dram_leg =
  | No_dram  (** no DRAM transactions *)
  | Direct  (** the class is DRAM itself: its CPU leg reaches DRAM *)
  | From of Channel.node  (** a fill leg from this node to DRAM *)

(* Every connectivity-independent term of one active serving class. *)
type serving_plan = {
  sv : Mem_sim.serving;
  via_l2 : bool;  (** misses cross a cache<->L2 leg *)
  dram : dram_leg;
  accesses : float;
  size : int;  (** average access size, at least 1 byte *)
  frac : float;  (** share of all accesses *)
  miss_rate : float;
  frac_miss : float;  (** [frac *. miss_rate] *)
  l1_miss_rate : float;  (** L2 probes per access of this class *)
  frac_l1_miss : float;  (** [frac *. l1_miss_rate] *)
  module_latency : float;
  crit : int;  (** critical-word bytes of a fill, at least 1 *)
  dram_txns : float;
  dram_txn_bytes : int;  (** average DRAM transaction, at least 1 byte *)
  dram_bytes : int;
  e_module : float;
  cpu_bytes : float;
  e_dram_traffic : float;
}

type plan = {
  servings : serving_plan array;
      (** active classes, in [Serving.all] order *)
  n : float;
  ops_rate : float;
  l2_txns : float;
  l2_txn_bytes : int;  (** average L1<->L2 transaction, at least 1 byte *)
  l2_latency : float;
  l2_bytes : float;
  e_l2_access : float;  (** L2 access energy of every L2 probe *)
  dram_core : float;
  total_accesses : int;
  miss_ratio : float;
  dram_bytes_total : int;
}

(* the estimator characterises a read-dominated average access *)
let module_energy arch sv = Serving.module_energy arch sv ~write:false

(* critical-word-first demand bytes; without the observed transfer the
   estimator falls back to a 4-byte word, and sizes the LLDMA leg from
   its static element width *)
let critical_bytes_of (arch : Mem_arch.t) sv =
  let lldma_bytes =
    match arch.Mem_arch.lldma with Some l -> l.Params.ll_elem | None -> 4
  in
  Serving.critical_bytes arch sv ~lldma_bytes ~fallback:4

let prepare ~workload ~arch ~(profile : Mem_sim.stats) =
  if profile.Mem_sim.accesses = 0 then
    invalid_arg "Estimator.estimate: empty profile";
  let n = float_of_int profile.Mem_sim.accesses in
  let has_l2 = profile.Mem_sim.l2_txns_total > 0 in
  let serving_plan sv =
    let count = profile.Mem_sim.cpu_accesses sv in
    let accesses = float_of_int count in
    let per_access x = float_of_int x /. float_of_int (max 1 count) in
    let via_l2 = sv = Mem_sim.By_cache && has_l2 in
    let node = Serving.node_of sv in
    let frac = accesses /. n in
    let miss_rate = per_access (profile.Mem_sim.demand_misses_by sv) in
    let l1_miss_rate = per_access profile.Mem_sim.l2_accesses in
    let dram_txns = float_of_int (profile.Mem_sim.dram_txns_by sv) in
    let dram_bytes = profile.Mem_sim.dram_bytes_by sv in
    {
      sv;
      via_l2;
      dram =
        (if node = Channel.Dram then Direct
         else if profile.Mem_sim.dram_txns_by sv > 0 then
           From (if via_l2 then Channel.L2 else node)
         else No_dram);
      accesses;
      size = max 1 (int_of_float (per_access (profile.Mem_sim.cpu_bytes sv)));
      frac;
      miss_rate;
      frac_miss = frac *. miss_rate;
      l1_miss_rate;
      frac_l1_miss = frac *. l1_miss_rate;
      module_latency = float_of_int (Serving.module_latency arch sv);
      crit = max 1 (critical_bytes_of arch sv);
      dram_txns;
      dram_txn_bytes =
        max 1 (int_of_float (float_of_int dram_bytes /. Float.max 1.0 dram_txns));
      dram_bytes;
      e_module = accesses *. module_energy arch sv;
      cpu_bytes = float_of_int (profile.Mem_sim.cpu_bytes sv);
      e_dram_traffic =
        Mx_mem.Energy_model.dram_traffic
          ~txns:(max 1 (profile.Mem_sim.dram_txns_by sv))
          ~bytes:dram_bytes;
    }
  in
  let l2_txns = float_of_int profile.Mem_sim.l2_txns_total in
  let trace_length =
    Mx_trace.Trace.length workload.Mx_trace.Workload.trace
  in
  {
    servings =
      Serving.all
      |> List.filter (fun sv -> profile.Mem_sim.cpu_accesses sv > 0)
      |> List.map serving_plan |> Array.of_list;
    n;
    ops_rate =
      float_of_int workload.Mx_trace.Workload.cpu_ops
      /. Float.max 1.0 (float_of_int trace_length);
    l2_txns;
    l2_txn_bytes =
      max 1
        (int_of_float
           (float_of_int profile.Mem_sim.l2_bytes_total
           /. Float.max 1.0 l2_txns));
    l2_latency =
      (match arch.Mem_arch.l2 with
      | Some c -> float_of_int c.Params.c_latency
      | None -> 0.0);
    l2_bytes = float_of_int profile.Mem_sim.l2_bytes_total;
    e_l2_access =
      float_of_int profile.Mem_sim.l2_accesses
      *. (match arch.Mem_arch.l2 with
         | Some c -> Mx_mem.Energy_model.cache_access c ~write:false
         | None -> 0.0);
    dram_core = Serving.dram_core_latency ();
    total_accesses = profile.Mem_sim.accesses;
    miss_ratio = Mem_sim.miss_ratio profile;
    dram_bytes_total = profile.Mem_sim.dram_bytes_total;
  }

(* Channels are direction-insensitive ([Channel.same_endpoints]), so a
   leg is named by its unordered endpoint pair. *)
let node_index = function
  | Channel.Cpu -> 0
  | Channel.Cache -> 1
  | Channel.L2 -> 2
  | Channel.Sram -> 3
  | Channel.Sbuf -> 4
  | Channel.Lldma -> 5
  | Channel.Dram -> 6

let pair a b =
  let a = node_index a and b = node_index b in
  if a <= b then (a * 7) + b else (b * 7) + a

let missing what =
  invalid_arg ("Estimator.estimate: no component carries " ^ what)

(* Leg slots: serving [i]'s CPU leg is [3 i], its cache<->L2 leg
   [3 i + 1] and its DRAM leg [3 i + 2]. *)
let run p ~conn =
  let bindings = Array.of_list (conn : Conn_arch.t).Conn_arch.bindings in
  (* the first binding carrying each endpoint pair *)
  let carrier = Array.make 49 (-1) in
  Array.iteri
    (fun i (b : Conn_arch.binding) ->
      List.iter
        (fun (ch : Channel.t) ->
          let k = pair ch.Channel.src ch.Channel.dst in
          if carrier.(k) < 0 then carrier.(k) <- i)
        b.Conn_arch.cluster.Cluster.channels)
    bindings;
  let ns = Array.length p.servings in
  let leg = Array.make (3 * ns) (-1) in
  Array.iteri
    (fun i s ->
      let node = Serving.node_of s.sv in
      let cpu = carrier.(pair Channel.Cpu node) in
      if cpu < 0 then missing ("CPU<->" ^ Channel.node_to_string node);
      leg.(3 * i) <- cpu;
      if s.via_l2 then begin
        let b = carrier.(pair Channel.Cache Channel.L2) in
        if b < 0 then missing "cache<->L2";
        leg.((3 * i) + 1) <- b
      end;
      match s.dram with
      | No_dram -> ()
      | Direct -> leg.((3 * i) + 2) <- cpu
      | From src ->
        let b = carrier.(pair src Channel.Dram) in
        if b < 0 then missing (Channel.node_to_string src ^ "<->DRAM");
        leg.((3 * i) + 2) <- b)
    p.servings;
  let comp k = bindings.(leg.(k)).Conn_arch.component in
  let contended k =
    match bindings.(leg.(k)).Conn_arch.cluster.Cluster.channels with
    | _ :: _ :: _ -> true
    | _ -> false
  in
  (* per-leg half service time and transaction latency, and the busy
     time of each binding, none of which depends on the total time *)
  let half = Array.make (3 * ns) 0.0 and lat = Array.make (3 * ns) 0.0 in
  let busy = Array.make (Array.length bindings) 0.0 in
  let add_busy k cycles =
    let b = leg.(k) in
    busy.(b) <- busy.(b) +. cycles
  in
  let time_leg k ~bytes =
    half.(k) <- float_of_int (Component.occupancy (comp k) ~bytes) /. 2.0;
    lat.(k) <-
      float_of_int
        (Component.txn_latency (comp k) ~bytes ~contended:(contended k))
  in
  Array.iteri
    (fun i s ->
      let k = 3 * i in
      add_busy k
        (s.accesses *. float_of_int (Component.occupancy (comp k) ~bytes:s.size));
      time_leg k ~bytes:s.size;
      if s.via_l2 then begin
        add_busy (k + 1)
          (p.l2_txns
          *. float_of_int
               (Component.occupancy (comp (k + 1)) ~bytes:p.l2_txn_bytes));
        time_leg (k + 1) ~bytes:8
      end;
      match s.dram with
      | No_dram | Direct -> ()
      | From _ ->
        let c = comp (k + 2) in
        let hold = if c.Component.split_txn then 0.0 else p.dram_core in
        add_busy (k + 2)
          (s.dram_txns
          *. (float_of_int (Component.occupancy c ~bytes:s.dram_txn_bytes)
             +. hold));
        time_leg (k + 2) ~bytes:s.crit)
    p.servings;
  (* fixed point on total time *)
  let latency = ref 5.0 in
  let total = ref (p.n *. (1.0 +. p.ops_rate +. !latency)) in
  let bus_wait = ref 0.0 in
  for _ = 1 to 4 do
    bus_wait := 0.0;
    let cycles = Float.max 1.0 !total in
    let[@inline] wait k =
      let rho = Float.min 0.98 (busy.(leg.(k)) /. cycles) in
      half.(k) *. (rho /. (1.0 -. rho))
    in
    let l_sum = ref 0.0 in
    for i = 0 to ns - 1 do
      let s = p.servings.(i) and k = 3 * i in
      let w1 = wait k in
      (* the L1<->L2 leg is traversed at the L1 miss rate *)
      let l2_path =
        if s.via_l2 then begin
          let w_m = wait (k + 1) in
          bus_wait := !bus_wait +. (s.frac_l1_miss *. w_m *. p.n);
          s.l1_miss_rate *. (w_m +. lat.(k + 1) +. p.l2_latency)
        end
        else 0.0
      in
      let miss_path =
        match s.dram with
        | No_dram -> 0.0
        | Direct -> p.dram_core
        | From _ ->
          let w2 = wait (k + 2) in
          bus_wait := !bus_wait +. (s.frac_miss *. w2 *. p.n);
          w2 +. lat.(k + 2) +. p.dram_core
      in
      bus_wait := !bus_wait +. (s.frac *. w1 *. p.n);
      l_sum :=
        !l_sum
        +. (s.frac
           *. (w1 +. lat.(k) +. s.module_latency +. l2_path
              +. (s.miss_rate *. miss_path)))
    done;
    latency := !l_sum;
    total := p.n *. (1.0 +. p.ops_rate +. !latency)
  done;
  (* energy: contention-independent, computed from exact profile counts *)
  let energy = ref 0.0 in
  Array.iteri
    (fun i s ->
      let k = 3 * i in
      let e_conn = s.cpu_bytes *. Conn_cost.energy_per_byte (comp k) in
      let e_l2 =
        if s.via_l2 then
          (p.l2_bytes *. Conn_cost.energy_per_byte (comp (k + 1)))
          +. p.e_l2_access
        else 0.0
      in
      let e_dram =
        match s.dram with
        | No_dram -> 0.0
        | Direct | From _ ->
          if s.dram_bytes = 0 then 0.0
          else
            s.e_dram_traffic
            +. (float_of_int s.dram_bytes
               *. Conn_cost.energy_per_byte (comp (k + 2)))
      in
      energy := !energy +. s.e_module +. e_conn +. e_l2 +. e_dram)
    p.servings;
  {
    Sim_result.accesses = p.total_accesses;
    cycles = int_of_float !total;
    total_mem_latency = int_of_float (!latency *. p.n);
    avg_mem_latency = !latency;
    avg_energy_nj = !energy /. p.n;
    miss_ratio = p.miss_ratio;
    bus_wait_cycles = int_of_float !bus_wait;
    dram_bytes = p.dram_bytes_total;
    exact = false;
  }

let estimate ~workload ~arch ~profile ~conn =
  run (prepare ~workload ~arch ~profile) ~conn
