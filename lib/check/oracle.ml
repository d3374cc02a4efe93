module Channel = Mx_connect.Channel
module Cluster = Mx_connect.Cluster
module Conn_arch = Mx_connect.Conn_arch
module Component = Mx_connect.Component
module Mem_arch = Mx_mem.Mem_arch
module Mem_sim = Mx_mem.Mem_sim
module Serving = Mx_sim.Serving

(* -- pareto ------------------------------------------------------------ *)

let dominates ~axes a b =
  List.for_all (fun f -> f a <= f b) axes
  && List.exists (fun f -> f a < f b) axes

let pareto_front ~axes pts =
  List.filter (fun p -> not (List.exists (fun q -> dominates ~axes q p) pts)) pts

(* -- Phase I selection --------------------------------------------------- *)

module Design = Conex.Design

type verdict = Kept | Thinned | Pruned of Design.t

let phase1_axes = [ Design.cost; Design.latency; Design.energy ]

let phase1_verdicts ~keep designs =
  let front = pareto_front ~axes:phase1_axes designs in
  let kept = Conex.Explore.thin_by_cost ~keep front in
  List.map
    (fun d ->
      if List.memq d kept then (d, Kept)
      else if List.memq d front then (d, Thinned)
      else
        let by = List.find (fun e -> dominates ~axes:phase1_axes e d) front in
        (d, Pruned by))
    designs

(* nearest non-selected estimates around each selected point, measured
   on span-normalised (cost, latency, energy) axes *)
let neighbors_of ~k selected all =
  let spans =
    List.map
      (fun f ->
        let vs = List.map f all in
        let lo = List.fold_left Float.min infinity vs
        and hi = List.fold_left Float.max neg_infinity vs in
        let s = hi -. lo in
        if s <= 0.0 then 1.0 else s)
      phase1_axes
  in
  let dist2 a b =
    List.fold_left2
      (fun acc f s ->
        let d = (f a -. f b) /. s in
        acc +. (d *. d))
      0.0 phase1_axes spans
  in
  let rest =
    List.filter
      (fun d -> not (List.exists (Design.equal_structure d) selected))
      all
  in
  List.concat_map
    (fun p ->
      rest
      |> List.map (fun d -> (dist2 p d, d))
      |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
      |> List.filteri (fun i _ -> i < k)
      |> List.map snd)
    selected
  |> List.fold_left
       (fun acc d ->
         if List.exists (Design.equal_structure d) acc then acc else d :: acc)
       []
  |> List.rev

(* -- clustering -------------------------------------------------------- *)

let cluster_canon (c : Cluster.t) =
  (Cluster.describe c, c.Cluster.bandwidth, c.Cluster.offchip)

(* the two lowest-bandwidth clusters of one class, stable on ties *)
let two_lowest indexed =
  match
    List.stable_sort
      (fun (_, (a : Cluster.t)) (_, (b : Cluster.t)) ->
        Float.compare a.Cluster.bandwidth b.Cluster.bandwidth)
      indexed
  with
  | a :: b :: _ -> Some (a, b)
  | _ -> None

let merge_once clusters =
  let indexed = List.mapi (fun i c -> (i, c)) clusters in
  let on = List.filter (fun (_, c) -> not c.Cluster.offchip) indexed
  and off = List.filter (fun (_, c) -> c.Cluster.offchip) indexed in
  let combined ((_, a), (_, b)) = a.Cluster.bandwidth +. b.Cluster.bandwidth in
  let pick =
    match (two_lowest on, two_lowest off) with
    | None, None -> None
    | Some p, None | None, Some p -> Some p
    | Some p_on, Some p_off ->
      (* smaller combined bandwidth wins; ties go on-chip *)
      if combined p_on <= combined p_off then Some p_on else Some p_off
  in
  match pick with
  | None -> None
  | Some ((i, a), (j, b)) ->
    let merged =
      {
        Cluster.channels = a.Cluster.channels @ b.Cluster.channels;
        bandwidth = a.Cluster.bandwidth +. b.Cluster.bandwidth;
        offchip = a.Cluster.offchip;
      }
    in
    Some
      (merged
      :: List.filter_map
           (fun (k, c) -> if k = i || k = j then None else Some c)
           indexed)

let cluster_levels channels =
  let finest =
    List.map
      (fun (ch : Channel.t) ->
        {
          Cluster.channels = [ ch ];
          bandwidth = ch.Channel.bandwidth;
          offchip = Channel.crosses_chip ch;
        })
      channels
  in
  let rec go level acc =
    match merge_once level with
    | None -> List.rev (level :: acc)
    | Some next -> go next (level :: acc)
  in
  go finest []

(* -- assignment enumeration -------------------------------------------- *)

let assign_feasible ~onchip ~offchip cluster =
  List.filter (fun comp -> Conn_arch.feasible cluster comp) (onchip @ offchip)

let assign_enumerate ~onchip ~offchip clusters =
  let choices = List.map (assign_feasible ~onchip ~offchip) clusters in
  if List.exists (fun cs -> cs = []) choices then []
  else begin
    let rec product = function
      | [] -> [ [] ]
      | (cluster, comps) :: rest ->
        let tails = product rest in
        List.concat_map
          (fun comp -> List.map (fun t -> (cluster, comp) :: t) tails)
          comps
    in
    List.map Conn_arch.make (product (List.combine clusters choices))
  end

(* -- straight-line cycle replay ----------------------------------------- *)

(* One routed leg: the component instance that carries a channel. *)
type leg = { comp : Component.t; idx : int; contended : bool }

let route bindings (src : Channel.node) (dst : Channel.node) =
  let probe = { Channel.src; dst; bandwidth = 0.0; txn_bytes = 0.0 } in
  let rec go i = function
    | [] -> None
    | (b : Conn_arch.binding) :: rest ->
      if
        List.exists (Channel.same_endpoints probe)
          b.Conn_arch.cluster.Cluster.channels
      then
        Some
          {
            comp = b.Conn_arch.component;
            idx = i;
            contended =
              List.length b.Conn_arch.cluster.Cluster.channels > 1;
          }
      else go (i + 1) rest
  in
  go 0 bindings

let replay_traced ?sample ?(cpu = Mx_sim.Cycle_sim.Blocking) ~workload ~arch
    ~conn () =
  (match sample with
  | Some (on, off) when on <= 0 || off < 0 ->
    invalid_arg "Oracle.replay: bad sampling windows"
  | _ -> ());
  let mshrs =
    match cpu with
    | Mx_sim.Cycle_sim.Blocking -> [||]
    | Mx_sim.Cycle_sim.Overlap n ->
      if n <= 0 then invalid_arg "Oracle.replay: Overlap needs an MSHR";
      Array.make n 0
  in
  let bindings = (conn : Conn_arch.t).Conn_arch.bindings in
  let busy = Array.make (max 1 (List.length bindings)) 0 in
  (* per-binding totals, added access by access *)
  let txns = Array.make (Array.length busy) 0 in
  let busy_cycles = Array.make (Array.length busy) 0 in
  let waits = Array.make (Array.length busy) 0 in
  let carry (l : leg) ~occ ~wait =
    txns.(l.idx) <- txns.(l.idx) + 1;
    busy_cycles.(l.idx) <- busy_cycles.(l.idx) + occ;
    waits.(l.idx) <- waits.(l.idx) + wait
  in
  (* with an L2 the cache's off-chip traffic leaves from the L2 *)
  let has_l2 = arch.Mem_arch.l2 <> None in
  let cpu_leg = Array.make 5 None and dram_leg = Array.make 5 None in
  List.iter
    (fun sv ->
      let node = Serving.node_of sv in
      let i = Serving.index sv in
      cpu_leg.(i) <- route bindings Channel.Cpu node;
      if node <> Channel.Dram then
        dram_leg.(i) <-
          route bindings
            (if sv = Mem_sim.By_cache && has_l2 then Channel.L2 else node)
            Channel.Dram)
    Serving.all;
  let l2_leg = route bindings Channel.Cache Channel.L2 in
  let require leg what =
    match leg with
    | Some l -> l
    | None ->
      invalid_arg
        (Printf.sprintf
           "Oracle.replay: connectivity does not implement the %s channel" what)
  in
  let msim =
    Mem_sim.create arch ~regions:workload.Mx_trace.Workload.regions
  in
  let dram = Mem_sim.dram msim in
  let trace = workload.Mx_trace.Workload.trace in
  let n = Mx_trace.Trace.length trace in
  let ops_rate =
    if n = 0 then 0.0
    else float_of_int workload.Mx_trace.Workload.cpu_ops /. float_of_int n
  in
  let now = ref 0 in
  let ops_acc = ref 0.0 in
  let timed = ref 0 in
  let total_lat = ref 0 in
  let total_wait = ref 0 in
  let energy = ref 0.0 in
  Mx_trace.Trace.iteri_packed trace ~f:(fun i ~addr ~size ~kind ~region ->
      let write = kind = Mx_trace.Access.Write in
      ops_acc := !ops_acc +. ops_rate;
      let gap = int_of_float !ops_acc in
      ops_acc := !ops_acc -. float_of_int gap;
      let o = Mem_sim.access msim ~now:i ~addr ~size ~write ~region in
      let sv = o.Mem_sim.serving in
      let k = Serving.index sv in
      let in_window =
        match sample with None -> true | Some (on, off) -> i mod (on + off) < on
      in
      if not in_window then begin
        (* off window: the row buffers still see the traffic *)
        if o.Mem_sim.dram_bytes > 0 then ignore (Mx_mem.Dram.access dram ~addr)
      end
      else begin
        now := !now + gap;
        (* CPU-side leg: queue behind the component, pay the transaction *)
        let node = Channel.node_to_string (Serving.node_of sv) in
        let l1 = require cpu_leg.(k) node in
        let start1 = max !now busy.(l1.idx) in
        let wait1 = start1 - !now in
        let lat1 =
          Component.txn_latency l1.comp ~bytes:size ~contended:l1.contended
        in
        let occ1 = Component.occupancy l1.comp ~bytes:size in
        carry l1 ~occ:occ1 ~wait:wait1;
        let mem_lat = Serving.module_latency arch sv in
        let crit =
          if not o.Mem_sim.dram_critical then 0
          else
            Serving.critical_bytes arch sv ~lldma_bytes:o.Mem_sim.dram_bytes
              ~fallback:size
        in
        let bg = o.Mem_sim.dram_bytes - crit in
        let miss_path = ref 0 in
        (* an L1 miss with an L2 first crosses the L1<->L2 leg: the
           critical word, then the rest of the transfer in background *)
        if o.Mem_sim.l2_bytes > 0 then begin
          let lm = require l2_leg "cache<->L2" in
          let crit_m = min 8 o.Mem_sim.l2_bytes in
          let t_req = !now + wait1 + lat1 in
          let start_m = max t_req busy.(lm.idx) in
          let wait_m = start_m - t_req in
          let occ_m = Component.occupancy lm.comp ~bytes:crit_m in
          busy.(lm.idx) <- start_m + occ_m;
          carry lm ~occ:occ_m ~wait:wait_m;
          if o.Mem_sim.l2_bytes > crit_m then begin
            let occ_bg =
              Component.occupancy lm.comp ~bytes:(o.Mem_sim.l2_bytes - crit_m)
            in
            busy.(lm.idx) <- max busy.(lm.idx) !now + occ_bg;
            carry lm ~occ:occ_bg ~wait:0
          end;
          let l2_lat =
            match arch.Mem_arch.l2 with
            | Some c -> c.Mx_mem.Params.c_latency
            | None -> 0
          in
          miss_path :=
            wait_m
            + Component.txn_latency lm.comp ~bytes:crit_m
                ~contended:lm.contended
            + l2_lat;
          total_wait := !total_wait + wait_m;
          energy :=
            !energy
            +. (float_of_int o.Mem_sim.l2_bytes
               *. Mx_connect.Conn_cost.energy_per_byte lm.comp)
        end;
        if o.Mem_sim.dram_bytes > 0 then begin
          let l2 =
            if sv = Mem_sim.By_dram_direct then l1
            else require dram_leg.(k) node
          in
          if crit > 0 then begin
            let dram_lat = Mx_mem.Dram.access dram ~addr in
            if sv = Mem_sim.By_dram_direct then miss_path := dram_lat
            else begin
              let t_req = !now + wait1 + lat1 + !miss_path in
              let start2 = max t_req busy.(l2.idx) in
              let wait2 = start2 - t_req in
              let lat2 =
                Component.txn_latency l2.comp ~bytes:crit
                  ~contended:l2.contended
              in
              let occ2 = Component.occupancy l2.comp ~bytes:crit in
              busy.(l2.idx) <-
                start2 + occ2
                + (if l2.comp.Component.split_txn then 0 else dram_lat);
              carry l2 ~occ:occ2 ~wait:wait2;
              miss_path := !miss_path + wait2 + lat2 + dram_lat;
              total_wait := !total_wait + wait2
            end
          end;
          if bg > 0 then begin
            ignore (Mx_mem.Dram.access dram ~addr);
            let occ_bg = Component.occupancy l2.comp ~bytes:bg in
            busy.(l2.idx) <- max busy.(l2.idx) !now + occ_bg;
            carry l2 ~occ:occ_bg ~wait:0
          end;
          energy :=
            !energy
            +. Mx_mem.Energy_model.dram_traffic ~txns:o.Mem_sim.dram_txns
                 ~bytes:o.Mem_sim.dram_bytes
            +. (float_of_int o.Mem_sim.dram_bytes
               *. Mx_connect.Conn_cost.energy_per_byte l2.comp)
        end;
        busy.(l1.idx) <-
          start1 + occ1
          + (if l1.comp.Component.split_txn then 0 else !miss_path);
        let on_chip = wait1 + lat1 + mem_lat + o.Mem_sim.extra_latency in
        let latency =
          match cpu with
          | Mx_sim.Cycle_sim.Blocking -> on_chip + !miss_path
          | Mx_sim.Cycle_sim.Overlap _ when !miss_path = 0 -> on_chip
          | Mx_sim.Cycle_sim.Overlap _ ->
            (* the miss takes the MSHR that frees first (lowest index on
               ties); the CPU stalls only until that slot is free *)
            let slot = ref 0 in
            Array.iteri (fun s t -> if t < mshrs.(!slot) then slot := s) mshrs;
            let stall = max 0 (mshrs.(!slot) - !now) in
            mshrs.(!slot) <- !now + stall + on_chip + !miss_path;
            on_chip + stall
        in
        now := !now + latency;
        total_lat := !total_lat + latency;
        total_wait := !total_wait + wait1;
        incr timed;
        energy :=
          !energy
          +. Serving.module_energy arch sv ~write
          +. o.Mem_sim.extra_energy
          +. (float_of_int size *. Mx_connect.Conn_cost.energy_per_byte l1.comp)
      end);
  let timed = max 1 !timed in
  let mstats = Mem_sim.snapshot msim in
  ( {
      Mx_sim.Sim_result.accesses = n;
      cycles =
        int_of_float
          (float_of_int !now *. (float_of_int n /. float_of_int timed));
      total_mem_latency = !total_lat;
      avg_mem_latency = float_of_int !total_lat /. float_of_int timed;
      avg_energy_nj = !energy /. float_of_int timed;
      miss_ratio = Mem_sim.miss_ratio mstats;
      bus_wait_cycles = !total_wait;
      dram_bytes = mstats.Mem_sim.dram_bytes_total;
      exact = sample = None;
    },
    List.mapi (fun i _ -> (txns.(i), busy_cycles.(i), waits.(i))) bindings )

let replay ?sample ?cpu ~workload ~arch ~conn () =
  fst (replay_traced ?sample ?cpu ~workload ~arch ~conn ())

(* -- straight-line analytic estimate --------------------------------------- *)

(* The estimator as one function: legs found by scanning the bindings,
   service times from reservation tables, every term re-derived from
   the profile inside the fixed point.  Its error messages are the
   production ones, so the differential check compares failures too. *)
let estimate ~workload ~arch ~(profile : Mem_sim.stats) ~conn =
  let module Params = Mx_mem.Params in
  let module Conn_cost = Mx_connect.Conn_cost in
  let module Rt = Mx_connect.Reservation_table in
  let dram_core_latency = Serving.dram_core_latency in
  let module_energy arch sv = Serving.module_energy arch sv ~write:false in
  let critical_bytes_of (arch : Mem_arch.t) sv =
    let lldma_bytes =
      match arch.Mem_arch.lldma with Some l -> l.Params.ll_elem | None -> 4
    in
    Serving.critical_bytes arch sv ~lldma_bytes ~fallback:4
  in
  if profile.Mem_sim.accesses = 0 then
    invalid_arg "Estimator.estimate: empty profile";
  let n = float_of_int profile.Mem_sim.accesses in
  let bindings = (conn : Conn_arch.t).Conn_arch.bindings in
  let find_leg src dst = route bindings src dst in
  (* per-serving traffic characterisation from the profile *)
  let active =
    List.filter (fun sv -> profile.Mem_sim.cpu_accesses sv > 0) Serving.all
  in
  let avg_size sv =
    float_of_int (profile.Mem_sim.cpu_bytes sv)
    /. float_of_int (max 1 (profile.Mem_sim.cpu_accesses sv))
  in
  let has_l2 = profile.Mem_sim.l2_txns_total > 0 in
  let legs =
    List.map
      (fun sv ->
        let node = Serving.node_of sv in
        let cpu =
          match find_leg Channel.Cpu node with
          | Some l -> l
          | None ->
            invalid_arg
              (Printf.sprintf
                 "Estimator.estimate: no component carries CPU<->%s"
                 (Channel.node_to_string node))
        in
        let mid =
          if sv = Mem_sim.By_cache && has_l2 then
            match find_leg Channel.Cache Channel.L2 with
            | Some l -> Some l
            | None ->
              invalid_arg
                "Estimator.estimate: no component carries cache<->L2"
          else None
        in
        let dram_src =
          if sv = Mem_sim.By_cache && has_l2 then Channel.L2 else node
        in
        let dram =
          if node = Channel.Dram then Some cpu
          else if profile.Mem_sim.dram_txns_by sv > 0 then
            match find_leg dram_src Channel.Dram with
            | Some l -> Some l
            | None ->
              invalid_arg
                (Printf.sprintf
                   "Estimator.estimate: no component carries %s<->DRAM"
                   (Channel.node_to_string dram_src))
          else None
        in
        (sv, cpu, mid, dram))
      active
  in
  (* reservation-table-derived occupancy of each component instance *)
  let busy = Array.make (List.length bindings) 0.0 in
  let occupancy comp ~bytes =
    float_of_int (Rt.initiation_interval comp ~bytes:(max 1 bytes))
  in
  List.iter
    (fun (sv, cpu, mid, dram) ->
      let txns = float_of_int (profile.Mem_sim.cpu_accesses sv) in
      busy.(cpu.idx) <-
        busy.(cpu.idx)
        +. (txns *. occupancy cpu.comp ~bytes:(int_of_float (avg_size sv)));
      (match mid with
      | Some l when profile.Mem_sim.l2_txns_total > 0 ->
        let mtx = float_of_int profile.Mem_sim.l2_txns_total in
        let per_txn =
          float_of_int profile.Mem_sim.l2_bytes_total /. Float.max 1.0 mtx
        in
        busy.(l.idx) <-
          busy.(l.idx) +. (mtx *. occupancy l.comp ~bytes:(int_of_float per_txn))
      | _ -> ());
      match dram with
      | Some l when sv <> Mem_sim.By_dram_direct ->
        let dtxns = float_of_int (profile.Mem_sim.dram_txns_by sv) in
        let per_txn_bytes =
          float_of_int (profile.Mem_sim.dram_bytes_by sv)
          /. Float.max 1.0 dtxns
        in
        let hold =
          if l.comp.Component.split_txn then 0.0 else dram_core_latency ()
        in
        busy.(l.idx) <-
          busy.(l.idx)
          +. (dtxns
             *. (occupancy l.comp ~bytes:(int_of_float per_txn_bytes) +. hold))
      | _ -> ())
    legs;
  let ops_rate =
    float_of_int workload.Mx_trace.Workload.cpu_ops
    /. Float.max 1.0
         (float_of_int (Mx_trace.Trace.length workload.Mx_trace.Workload.trace))
  in
  let wait_of total_cycles binding_id service =
    let rho = Float.min 0.98 (busy.(binding_id) /. Float.max 1.0 total_cycles) in
    service /. 2.0 *. (rho /. (1.0 -. rho))
  in
  (* fixed-point on total time *)
  let latency = ref 5.0 in
  let total = ref (n *. (1.0 +. ops_rate +. !latency)) in
  let bus_wait = ref 0.0 in
  for _ = 1 to 4 do
    bus_wait := 0.0;
    let l_sum =
      List.fold_left
        (fun acc (sv, cpu, mid, dram) ->
          let frac =
            float_of_int (profile.Mem_sim.cpu_accesses sv) /. n
          in
          let size = int_of_float (avg_size sv) in
          let s1 = occupancy cpu.comp ~bytes:size in
          let w1 = wait_of !total cpu.idx s1 in
          let t1 =
            float_of_int
              (Component.txn_latency cpu.comp ~bytes:(max 1 size)
                 ~contended:cpu.contended)
          in
          let miss_rate =
            float_of_int (profile.Mem_sim.demand_misses_by sv)
            /. float_of_int (max 1 (profile.Mem_sim.cpu_accesses sv))
          in
          (* the L1<->L2 leg is traversed at the L1 miss rate *)
          let l2_path =
            match mid with
            | None -> 0.0
            | Some l ->
              let l1_miss_rate =
                float_of_int profile.Mem_sim.l2_accesses
                /. float_of_int (max 1 (profile.Mem_sim.cpu_accesses sv))
              in
              let s_m = occupancy l.comp ~bytes:8 in
              let w_m = wait_of !total l.idx s_m in
              let t_m =
                float_of_int
                  (Component.txn_latency l.comp ~bytes:8
                     ~contended:l.contended)
              in
              let l2_lat =
                match arch.Mem_arch.l2 with
                | Some c -> float_of_int c.Params.c_latency
                | None -> 0.0
              in
              bus_wait := !bus_wait +. (frac *. l1_miss_rate *. w_m *. n);
              l1_miss_rate *. (w_m +. t_m +. l2_lat)
          in
          let miss_path =
            match dram with
            | None -> 0.0
            | Some l ->
              let crit = critical_bytes_of arch sv in
              let t2 =
                if sv = Mem_sim.By_dram_direct then 0.0
                else
                  float_of_int
                    (Component.txn_latency l.comp ~bytes:(max 1 crit)
                       ~contended:l.contended)
              in
              let s2 = occupancy l.comp ~bytes:(max 1 crit) in
              let w2 =
                if sv = Mem_sim.By_dram_direct then 0.0
                else wait_of !total l.idx s2
              in
              bus_wait := !bus_wait +. (frac *. miss_rate *. w2 *. n);
              w2 +. t2 +. dram_core_latency ()
          in
          bus_wait := !bus_wait +. (frac *. w1 *. n);
          acc
          +. (frac
             *. (w1 +. t1
                +. float_of_int (Serving.module_latency arch sv)
                +. l2_path
                +. (miss_rate *. miss_path))))
        0.0 legs
    in
    latency := l_sum;
    total := n *. (1.0 +. ops_rate +. !latency)
  done;
  (* energy: contention-independent, computed from exact profile counts *)
  let energy_total =
    List.fold_left
      (fun acc (sv, cpu, mid, dram) ->
        let accs = float_of_int (profile.Mem_sim.cpu_accesses sv) in
        let cpu_bytes = float_of_int (profile.Mem_sim.cpu_bytes sv) in
        let e_mod = accs *. module_energy arch sv in
        let e_conn = cpu_bytes *. Conn_cost.energy_per_byte cpu.comp in
        let e_l2 =
          match mid with
          | Some l ->
            (float_of_int profile.Mem_sim.l2_bytes_total
            *. Conn_cost.energy_per_byte l.comp)
            +. (float_of_int profile.Mem_sim.l2_accesses
               *. (match arch.Mem_arch.l2 with
                  | Some c -> Mx_mem.Energy_model.cache_access c ~write:false
                  | None -> 0.0))
          | None -> 0.0
        in
        let e_dram =
          match dram with
          | None -> 0.0
          | Some l ->
            let bytes = profile.Mem_sim.dram_bytes_by sv in
            let txns = max 1 (profile.Mem_sim.dram_txns_by sv) in
            if bytes = 0 then 0.0
            else
              Mx_mem.Energy_model.dram_traffic ~txns ~bytes
              +. (float_of_int bytes *. Conn_cost.energy_per_byte l.comp)
        in
        acc +. e_mod +. e_conn +. e_l2 +. e_dram)
      0.0 legs
  in
  {
    Mx_sim.Sim_result.accesses = profile.Mem_sim.accesses;
    cycles = int_of_float !total;
    total_mem_latency = int_of_float (!latency *. n);
    avg_mem_latency = !latency;
    avg_energy_nj = energy_total /. n;
    miss_ratio = Mem_sim.miss_ratio profile;
    bus_wait_cycles = int_of_float !bus_wait;
    dram_bytes = profile.Mem_sim.dram_bytes_total;
    exact = false;
  }

(* -- evaluation without the cache ---------------------------------------- *)

let eval_direct ~fidelity ~workload ~arch ~conn () =
  match (fidelity : Mx_sim.Eval.fidelity) with
  | Mx_sim.Eval.Sampled (on, off) ->
    Mx_sim.Cycle_sim.run ~sample:(on, off) ~workload ~arch ~conn ()
  | Mx_sim.Eval.Exact -> Mx_sim.Cycle_sim.run ~workload ~arch ~conn ()

(* -- module-level profiles ---------------------------------------------- *)

let profiles ~regions archs trace =
  List.map (fun a -> Mem_sim.run (Mem_sim.create a ~regions) trace) archs

let profile_canon (s : Mem_sim.stats) =
  let per name f =
    List.map
      (fun sv -> (Printf.sprintf "%s[%d]" name (Serving.index sv), f sv))
      Serving.all
  in
  [
    ("accesses", s.accesses);
    ("on_chip_hits", s.on_chip_hits);
    ("demand_misses", s.demand_misses);
    ("dram_bytes_total", s.dram_bytes_total);
    ("victim_hits", s.victim_hits);
    ("wbuf_stalls", s.wbuf_stalls);
    ("l2_accesses", s.l2_accesses);
    ("l2_hits", s.l2_hits);
    ("l2_bytes_total", s.l2_bytes_total);
    ("l2_txns_total", s.l2_txns_total);
  ]
  @ per "cpu_bytes" s.cpu_bytes
  @ per "cpu_accesses" s.cpu_accesses
  @ per "dram_bytes_by" s.dram_bytes_by
  @ per "dram_txns_by" s.dram_txns_by
  @ per "demand_misses_by" s.demand_misses_by

(* -- replacement-policy reference simulators ----------------------------- *)

module Params = Mx_mem.Params

type repl_event = {
  o_hit : bool;
  o_writeback : bool;
  o_evicted_line : int option;
}

(* Each set is modelled the most direct way its policy allows:

   - True_lru / Fifo are order-based: a set is a plain list of lines in
     recency (resp. fill) order, no way indexes at all — the victim is
     simply the last element.  The production cache keeps these sets
     in order too, in its way arrays, so for them this model checks
     the kernel's shifts but not the representation; [stack_hits]
     below is true LRU's independent check.
   - Tree_plru / QLRU / MRU_N depend on way placement, so their sets
     are an array of slots (filled lowest index first, like the
     production cache) plus the policy's state written as a naive
     direct transcription of its specification: a recursive binary
     tree for PLRU, explicit age normalisation for QLRU, explicit
     saturation clearing for MRU_N. *)

(* recursive PLRU tree over way ranges; [toward_right] is where the
   next victim walk goes *)
type ptree =
  | Pleaf
  | Pnode of { mutable toward_right : bool; left : ptree; right : ptree }

let rec ptree_make ways =
  if ways <= 1 then Pleaf
  else
    Pnode
      { toward_right = false; left = ptree_make (ways / 2);
        right = ptree_make (ways / 2) }

let rec ptree_victim t ~lo ~ways =
  match t with
  | Pleaf -> lo
  | Pnode n ->
    let half = ways / 2 in
    if n.toward_right then ptree_victim n.right ~lo:(lo + half) ~ways:half
    else ptree_victim n.left ~lo ~ways:half

let rec ptree_touch t ~lo ~ways ~way =
  match t with
  | Pleaf -> ()
  | Pnode n ->
    let half = ways / 2 in
    if way < lo + half then begin
      n.toward_right <- true;
      ptree_touch n.left ~lo ~ways:half ~way
    end
    else begin
      n.toward_right <- false;
      ptree_touch n.right ~lo:(lo + half) ~ways:half ~way
    end

type repl_slot = { mutable s_tag : int; mutable s_dirty : bool }

type repl_set =
  (* most recent first; (tag, dirty) *)
  | Order of { mutable entries : (int * bool) list; promote_on_hit : bool }
  | Slotted of {
      slots : repl_slot array; (* s_tag = -1 when free *)
      pstate : pstate;
    }

and pstate =
  | Ptree of ptree
  | Pages of { ages : int array; hit_ages : int array; fill_age : int }
  | Pbits of bool array

let repl_cache (p : Params.cache) stream =
  Params.validate_cache p;
  let ways = p.Params.c_assoc in
  let sets = p.Params.c_size / p.Params.c_line / ways in
  let make_set () =
    match p.Params.c_policy with
    | Params.True_lru -> Order { entries = []; promote_on_hit = true }
    | Params.Fifo -> Order { entries = []; promote_on_hit = false }
    | Params.Tree_plru ->
      Slotted
        {
          slots = Array.init ways (fun _ -> { s_tag = -1; s_dirty = false });
          pstate = Ptree (ptree_make ways);
        }
    | Params.Qlru_h11_m1 | Params.Qlru_h00_m0 ->
      Slotted
        {
          slots = Array.init ways (fun _ -> { s_tag = -1; s_dirty = false });
          pstate =
            Pages
              {
                ages = Array.make ways 3;
                hit_ages =
                  (if p.Params.c_policy = Params.Qlru_h11_m1 then
                     [| 0; 0; 1; 1 |]
                   else [| 0; 0; 0; 0 |]);
                fill_age =
                  (if p.Params.c_policy = Params.Qlru_h11_m1 then 1 else 0);
              };
        }
    | Params.Mru_n ->
      Slotted
        {
          slots = Array.init ways (fun _ -> { s_tag = -1; s_dirty = false });
          pstate = Pbits (Array.make ways false);
        }
  in
  let table = Array.init sets (fun _ -> make_set ()) in
  let global_line ~set tag = (tag * sets) + set in
  let access (addr, write) =
    let line = addr / p.Params.c_line in
    let set = line mod sets in
    let tag = line / sets in
    match table.(set) with
    | Order o -> (
      match List.assoc_opt tag o.entries with
      | Some dirty ->
        let dirty = dirty || write in
        if o.promote_on_hit then
          o.entries <- (tag, dirty) :: List.remove_assoc tag o.entries
        else
          o.entries <-
            List.map
              (fun (t, d) -> if t = tag then (t, dirty) else (t, d))
              o.entries;
        { o_hit = true; o_writeback = false; o_evicted_line = None }
      | None ->
        if List.length o.entries < ways then begin
          o.entries <- (tag, write) :: o.entries;
          { o_hit = false; o_writeback = false; o_evicted_line = None }
        end
        else begin
          (* the victim is the last entry: least recently used, or
             oldest fill *)
          let rec split_last acc = function
            | [] -> assert false
            | [ last ] -> (List.rev acc, last)
            | e :: rest -> split_last (e :: acc) rest
          in
          let kept, (vtag, vdirty) = split_last [] o.entries in
          o.entries <- (tag, write) :: kept;
          {
            o_hit = false;
            o_writeback = vdirty;
            o_evicted_line = Some (global_line ~set vtag);
          }
        end)
    | Slotted s -> (
      let hit_way = ref (-1) in
      Array.iteri
        (fun i slot -> if slot.s_tag = tag then hit_way := i)
        s.slots;
      let touch way =
        match s.pstate with
        | Ptree t -> ptree_touch t ~lo:0 ~ways ~way
        | Pages q -> q.ages.(way) <- q.hit_ages.(q.ages.(way))
        | Pbits bits ->
          bits.(way) <- true;
          if Array.for_all Fun.id bits then begin
            Array.fill bits 0 ways false;
            bits.(way) <- true
          end
      and fill way =
        match s.pstate with
        | Ptree t -> ptree_touch t ~lo:0 ~ways ~way
        | Pages q -> q.ages.(way) <- q.fill_age
        | Pbits bits -> bits.(way) <- false
      and victim () =
        match s.pstate with
        | Ptree t -> ptree_victim t ~lo:0 ~ways
        | Pages q ->
          let max_age = Array.fold_left max 0 q.ages in
          if max_age < 3 then
            Array.iteri (fun i a -> q.ages.(i) <- a + (3 - max_age)) q.ages;
          let rec first i = if q.ages.(i) = 3 then i else first (i + 1) in
          first 0
        | Pbits bits ->
          let rec first i =
            if i >= ways then 0 else if not bits.(i) then i else first (i + 1)
          in
          first 0
      in
      if !hit_way >= 0 then begin
        let slot = s.slots.(!hit_way) in
        slot.s_dirty <- slot.s_dirty || write;
        touch !hit_way;
        { o_hit = true; o_writeback = false; o_evicted_line = None }
      end
      else begin
        let free = ref (-1) in
        for i = ways - 1 downto 0 do
          if s.slots.(i).s_tag = -1 then free := i
        done;
        let way = if !free >= 0 then !free else victim () in
        let slot = s.slots.(way) in
        let evicted =
          if slot.s_tag = -1 then None
          else Some (global_line ~set slot.s_tag)
        in
        let wb = slot.s_tag <> -1 && slot.s_dirty in
        slot.s_tag <- tag;
        slot.s_dirty <- write;
        fill way;
        { o_hit = false; o_writeback = wb; o_evicted_line = evicted }
      end)
  in
  List.map access stream

(* fully-associative LRU by stack distance: a reference hits iff its
   line was used before and at most [capacity - 1] distinct lines were
   used since *)
let stack_hits ~capacity lines =
  let stack = ref [] in
  List.map
    (fun line ->
      let rec split depth acc = function
        | [] -> (None, List.rev acc)
        | x :: rest when x = line -> (Some depth, List.rev_append acc rest)
        | x :: rest -> split (depth + 1) (x :: acc) rest
      in
      let depth, rest = split 0 [] !stack in
      stack := line :: rest;
      match depth with Some d -> d < capacity | None -> false)
    lines

(* -- victim buffer ------------------------------------------------------ *)

(* The buffer as a list in insertion order, oldest first: a clean
   eviction appends its line, dropping the head when the buffer is
   full, and a probe hit removes its line. *)
let victim_buffer ~entries misses =
  let buf = ref [] in
  List.map
    (fun (evicted, line) ->
      Option.iter
        (fun e ->
          let b = !buf @ [ e ] in
          buf := if List.length b > entries then List.tl b else b)
        evicted;
      let hit = List.mem line !buf in
      if hit then buf := List.filter (fun l -> l <> line) !buf;
      hit)
    misses

(* -- statistics --------------------------------------------------------- *)

let percentile xs ~p =
  match List.sort Float.compare xs with
  | [] -> None
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    Some (List.nth sorted (max 0 (min (n - 1) (rank - 1))))

let stddev xs =
  let n = List.length xs in
  if n < 2 then 0.0
  else begin
    let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
    let ss =
      List.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs
    in
    sqrt (ss /. float_of_int n)
  end

let spearman_distinct xs ys =
  let n = List.length xs in
  let rank vs v =
    1 + List.length (List.filter (fun u -> u < v) vs)
  in
  let d2 =
    List.fold_left2
      (fun acc x y ->
        let d = float_of_int (rank xs x - rank ys y) in
        acc +. (d *. d))
      0.0 xs ys
  in
  1.0 -. (6.0 *. d2 /. (float_of_int n *. float_of_int ((n * n) - 1)))
