(* Reproduction of every table and figure in the paper's evaluation.

   Each experiment prints the measured result next to the paper's
   reference numbers and a set of CHECK lines asserting the *shape*
   criteria from DESIGN.md (who wins, by roughly what factor) — the
   absolute numbers come from a synthetic substrate and are not
   expected to match. *)

module Design = Conex.Design
module Explore = Conex.Explore
module Strategy = Conex.Strategy
module Coverage = Conex.Coverage
module Report = Conex.Report
module Table = Mx_util.Table

let scale = 100_000
let table2_scale = 12_000

(* Parallelism for every exploration in the harness; set once from the
   CLI (--jobs) before any experiment runs. *)
let jobs = ref (Mx_util.Task_pool.default_jobs ())

(* Failed CHECKs are counted so the harness can exit non-zero: CI runs
   individual experiments (e.g. `cache`) as assertions, not just smoke. *)
let failures = ref 0

(* When set (--run-dir), every exploration the harness runs leaves a
   manifest in the ledger, so bench trajectories become diffable
   history ('conex runs diff') instead of CI-artifact-only JSON. *)
let run_dir = ref None

let record_manifest ~kind (r : Explore.result) =
  Option.iter
    (fun dir ->
      let m =
        Conex.Ledger.make ~kind
          ~config_kv:
            [
              ("workload", r.Explore.workload.Mx_trace.Workload.name);
              ("scale", string_of_int scale);
              ("seed", "7");
            ]
          ~sched_kv:[ ("jobs", string_of_int !jobs) ]
          ~result:r
      in
      match Conex.Ledger.save ~dir m with
      | Ok path -> Printf.printf "run manifest written to %s\n" path
      | Error e ->
        incr failures;
        Printf.printf "CHECK %-58s %s\n" ("ledger write: " ^ e) "FAIL")
    !run_dir

let check name ok =
  if not ok then incr failures;
  Printf.printf "CHECK %-58s %s\n" name (if ok then "PASS" else "FAIL")

let workloads =
  lazy
    [
      ("compress", Mx_trace.Kern_compress.generate ~scale ~seed:7);
      ("li", Mx_trace.Kern_li.generate ~scale ~seed:7);
      ("vocoder", Mx_trace.Kern_vocoder.generate ~scale ~seed:7);
    ]

let workload name = List.assoc name (Lazy.force workloads)

(* ConEx results are reused across fig4/fig6/table1: compute once. *)
let conex_results : (string, Explore.result) Hashtbl.t = Hashtbl.create 3

let conex name =
  match Hashtbl.find_opt conex_results name with
  | Some r -> r
  | None ->
    let config = { Explore.default_config with Explore.jobs = !jobs } in
    let r = Explore.run ~config (workload name) in
    Hashtbl.add conex_results name r;
    Json_out.record_experiment ~name:("explore:" ^ name)
      ~wall_seconds:r.Explore.wall_seconds ~n_estimates:r.Explore.n_estimates
      ~n_simulations:r.Explore.n_simulations;
    record_manifest ~kind:("bench:explore:" ^ name) r;
    r

(* -- Fig. 3: APEX memory-modules pareto for compress ------------------- *)

let fig3 () =
  print_endline "==================================================================";
  print_endline "Fig. 3 -- APEX memory modules exploration (compress)";
  print_endline "  paper: cost (gates) vs overall miss ratio; pareto points 1-5";
  print_endline "==================================================================";
  let p = Mx_trace.Profile.analyze (workload "compress") in
  let all = Mx_apex.Explore.explore p in
  let front = Mx_apex.Explore.pareto all in
  let selected = Mx_apex.Explore.select p in
  Printf.printf "%d candidate architectures, %d on the pareto front\n\n"
    (List.length all) (List.length front);
  let t = Table.create ~headers:[ "#"; "architecture"; "cost [gates]"; "miss ratio" ] in
  List.iteri
    (fun i (c : Mx_apex.Explore.candidate) ->
      Table.add_row t
        [
          string_of_int (i + 1);
          c.Mx_apex.Explore.arch.Mx_mem.Mem_arch.label;
          string_of_int c.Mx_apex.Explore.cost_gates;
          Printf.sprintf "%.4f" c.Mx_apex.Explore.miss_ratio;
        ])
    selected;
  Table.print t;
  let costs = List.map (fun c -> c.Mx_apex.Explore.cost_gates) selected in
  let misses = List.map (fun c -> c.Mx_apex.Explore.miss_ratio) selected in
  check "selected points form a trade-off (cost up, miss down)"
    (costs = List.sort compare costs
    && List.rev misses = List.sort compare misses);
  check "about five promising designs selected (paper: 5)"
    (* max_selected plus the always-included traditional baseline *)
    (List.length selected >= 3 && List.length selected <= 6);
  check "miss-ratio span is meaningful (>= 1.2x)"
    (match (misses, List.rev misses) with
    | worst :: _, best :: _ -> worst /. Float.max 1e-9 best >= 1.2
    | _ -> false);
  print_newline ()

(* -- Fig. 4: connectivity exploration cloud for compress ---------------- *)

let fig4 () =
  print_endline "==================================================================";
  print_endline "Fig. 4 -- ConEx connectivity exploration (compress)";
  Printf.printf
    "  paper: avg memory latency reduced %.1f -> %.1f cycles (%.0f%%)\n"
    Paper_data.fig4_latency_worst Paper_data.fig4_latency_best
    Paper_data.fig4_improvement_pct;
  print_endline "==================================================================";
  let r = conex "compress" in
  Printf.printf
    "phase I estimated %d candidates; phase II simulated %d; %.1fs\n\n"
    r.Explore.n_estimates r.Explore.n_simulations r.Explore.wall_seconds;
  print_endline "cost (x) vs average memory latency (y); '#' = pareto:";
  print_string
    (Report.ascii_scatter ~x:Design.cost ~y:Design.latency
       ~highlight:r.Explore.pareto_cost_perf r.Explore.simulated);
  let pareto = r.Explore.pareto_cost_perf in
  (match (pareto, List.rev pareto) with
  | cheapest :: _, best :: _ ->
    let worst_l = Design.latency cheapest and best_l = Design.latency best in
    let impr = Mx_util.Stats.ratio_pct best_l worst_l in
    Printf.printf
      "\nmeasured: %.2f -> %.2f cycles across the pareto front (%.0f%% improvement; paper: %.0f%%)\n"
      worst_l best_l impr Paper_data.fig4_improvement_pct;
    check "connectivity exploration improves latency by tens of percent"
      (impr >= 20.0);
    check "improvement costs gates (cost rises along the front)"
      (Design.cost best > Design.cost cheapest)
  | _ -> check "pareto front non-empty" false);
  print_newline ()

(* -- Fig. 6: annotated cost/perf pareto architectures -------------------- *)

let fig6 () =
  print_endline "==================================================================";
  print_endline "Fig. 6 -- analysis of the cost/perf pareto architectures (compress)";
  Printf.printf
    "  paper anchors: c ~ +%.0f%% over b; g ~ +%.0f%% for ~+%.0f%% cost; k ~ +%.0f%%\n"
    Paper_data.fig6_c_improvement_pct Paper_data.fig6_g_improvement_pct
    Paper_data.fig6_g_cost_increase_pct Paper_data.fig6_k_improvement_pct;
  print_endline "==================================================================";
  let r = conex "compress" in
  let annotated = Report.annotate r.Explore.pareto_cost_perf in
  List.iter
    (fun (label, d) ->
      Printf.printf "  %-2s %8d gates  %6.2f cy  %5.2f nJ   %s\n" label
        d.Design.cost_gates (Design.latency d) (Design.energy d) (Design.id d))
    annotated;
  (* the paper's (b): best design of the plainest memory architecture on
     the front; novel designs are everything with extra modules *)
  let plain (d : Design.t) =
    d.Design.mem.Mx_mem.Mem_arch.sbuf = None
    && d.Design.mem.Mx_mem.Mem_arch.lldma = None
    && d.Design.mem.Mx_mem.Mem_arch.sram = None
  in
  let designs = List.map snd annotated in
  let baseline =
    (* the best traditional design among everything simulated (the
       paper's (b)); falls back to the cheapest front design *)
    match
      Mx_util.Pareto.sort_by Design.latency
        (List.filter plain r.Explore.simulated)
    with
    | b :: _ ->
      Printf.printf "\n  baseline (b) = best traditional cache-only design: %s\n"
        (Design.id b);
      b
    | [] ->
      print_endline
        "\n  note: no pure cache-only design simulated; using the cheapest \
         front design as baseline (b)";
      List.hd designs
  in
  (* best novel design on the front, and the best traditional design
     that does not cost more than it (cost-matched comparison — the
     paper's b-vs-k claim is about buying performance with modules) *)
  let novel = List.filter (fun d -> not (plain d)) designs in
  let best_novel =
    match Mx_util.Pareto.sort_by Design.latency novel with
    | d :: _ -> d
    | [] -> List.hd (List.rev designs)
  in
  let trad_at_cost =
    Mx_util.Pareto.sort_by Design.latency
      (List.filter
         (fun d -> plain d && Design.cost d <= Design.cost best_novel *. 1.1)
         r.Explore.simulated)
  in
  (match trad_at_cost with
  | t :: _ ->
    let impr =
      Mx_util.Stats.ratio_pct (Design.latency best_novel) (Design.latency t)
    in
    Printf.printf
      "\nmeasured: best novel design improves %.0f%% over the best \
       cost-comparable traditional design\n"
      impr;
    Printf.printf "paper:    k improves ~%.0f%% over b\n"
      Paper_data.fig6_k_improvement_pct;
    check "novel architectures beat the cost-matched baseline (>= 10%)"
      (impr >= 10.0)
  | [] ->
    (* no traditional design as cheap as the best novel one: the novel
       design wins on cost-efficiency instead *)
    let impr =
      Mx_util.Stats.ratio_pct (Design.latency best_novel)
        (Design.latency baseline)
    in
    let cost_saving =
      100.0
      *. (Design.cost baseline -. Design.cost best_novel)
      /. Design.cost baseline
    in
    Printf.printf
      "\nmeasured: the best novel design reaches within %.0f%% of the best \
       traditional design's latency at %.0f%% lower cost (no traditional \
       design exists at comparable cost)\n"
      (-.impr) cost_saving;
    Printf.printf "paper:    k improves ~%.0f%% over b at higher cost\n"
      Paper_data.fig6_k_improvement_pct;
    check "novel architectures dominate the affordable frontier"
      (cost_saving >= 20.0 && impr >= -15.0));
  check "most of the cost/perf front uses novel memory modules"
    (2 * List.length novel >= List.length designs);
  check "labels a..k ordering is by cost"
    (let costs = List.map Design.cost designs in
     costs = List.sort compare costs);
  print_newline ()

(* -- Table 1: selected cost/performance designs --------------------------- *)

let table1 () =
  print_endline "==================================================================";
  print_endline "Table 1 -- selected cost/performance designs (all benchmarks)";
  print_endline "==================================================================";
  List.iter
    (fun (name, _) ->
      let r = conex name in
      let designs = r.Explore.pareto_cost_perf in
      let paper = List.assoc name Paper_data.table1 in
      Printf.printf "\n--- %s: measured (this reproduction) ---\n" name;
      Report.print_designs ~title:"" designs;
      Printf.printf "--- %s: paper (cost, latency, energy) ---\n" name;
      let t =
        Table.create
          ~headers:[ "cost [gates]"; "avg mem latency [cycles]"; "avg energy [nJ]" ]
      in
      List.iter
        (fun (c, l, e) ->
          Table.add_row t
            [ string_of_int c; Printf.sprintf "%.2f" l; Printf.sprintf "%.2f" e ])
        paper;
      Table.print t;
      (* shape checks *)
      let lats = List.map Design.latency designs in
      let engs = List.map Design.energy designs in
      let costs = List.map Design.cost designs in
      let span xs =
        List.fold_left Float.max neg_infinity xs
        /. Float.max 1e-9 (List.fold_left Float.min infinity xs)
      in
      (* the paper's flat-energy observation is made for compress and li
         ("the performance of the compress and li benchmarks varies by an
          order of magnitude. The energy consumption of these benchmarks
          does not vary significantly") *)
      if name <> "vocoder" then
        check
          (Printf.sprintf "%s: latency spread much larger than energy spread"
             name)
          (span lats > 1.5 *. span engs)
      else
        check
          (Printf.sprintf "%s: energy stays within a moderate band (< 4x)" name)
          (span engs < 4.0);
      check
        (Printf.sprintf "%s: cost ascends while latency descends" name)
        (costs = List.sort compare costs
        && List.rev lats = List.sort compare lats);
      check
        (Printf.sprintf "%s: significant latency range (>= 2x)" name)
        (span lats >= 2.0))
    (Lazy.force workloads);
  print_newline ()

(* -- Table 2: pareto coverage of the three strategies ---------------------- *)

let table2_config =
  {
    Explore.apex =
      {
        Mx_apex.Explore.caches =
          (match Mx_mem.Module_lib.caches with
          | a :: _ :: _ :: _ :: b :: _ -> [ a; b ]
          | l -> l);
        include_no_cache = false;
        sbufs = [ List.hd Mx_mem.Module_lib.stream_buffers ];
        lldmas = [ List.hd Mx_mem.Module_lib.lldmas ];
        l2s = [];
        victims = [];
        write_buffers = [];
        sram_budget = 4 * 1024;
        max_selected = 6;
      };
    onchip =
      List.filter
        (fun (c : Mx_connect.Component.t) ->
          List.mem c.Mx_connect.Component.name
            [ "mux32"; "apb32"; "asb32"; "ahb32" ])
        Mx_connect.Component.onchip_library;
    offchip =
      List.filter
        (fun (c : Mx_connect.Component.t) ->
          c.Mx_connect.Component.name = "off32")
        Mx_connect.Component.offchip_library;
    max_designs_per_level = 512;
    phase1_keep = 16;
    sample = None;
    refine_top = 0;
    jobs = 1;
    shards = 1;
    archive_eps = 0.0;
    archive_capacity = None;
  }

let table2 () =
  print_endline "==================================================================";
  print_endline "Table 2 -- pareto coverage: Pruned vs Neighborhood vs Full";
  print_endline
    "  (reduced catalogue + shorter trace so the Full enumeration terminates;";
  print_endline
    "   the paper's Full runs took up to a month and were infeasible for li)";
  print_endline "==================================================================";
  let bench name gen =
    let w = gen ~scale:table2_scale ~seed:7 in
    let config = { table2_config with Explore.jobs = !jobs } in
    let cs0 = Mx_sim.Eval.cache_stats () in
    let full = Strategy.run ~config Strategy.Full w in
    let pruned = Strategy.run ~config Strategy.Pruned w in
    let nbhd = Strategy.run ~config Strategy.Neighborhood w in
    let cs1 = Mx_sim.Eval.cache_stats () in
    let paper = List.assoc name Paper_data.table2 in
    Printf.printf "\n--- %s ---\n" name;
    let t =
      Table.create
        ~headers:
          [ "strategy"; "time [s]"; "sims"; "coverage %"; "cost dist %";
            "perf dist %"; "energy dist %"; "paper time"; "paper cov %" ]
    in
    let row (o : Strategy.outcome) =
      let r = Coverage.eval ~reference:full o in
      let pt, pc =
        match List.assoc_opt (Strategy.kind_to_string o.Strategy.kind) paper with
        | Some p -> (p.Paper_data.time, Printf.sprintf "%.0f" p.Paper_data.coverage_pct)
        | None -> ("-", "-")
      in
      Table.add_row t
        [
          Strategy.kind_to_string o.Strategy.kind;
          Printf.sprintf "%.2f" o.Strategy.wall_seconds;
          string_of_int o.Strategy.n_simulations;
          Printf.sprintf "%.1f" r.Coverage.coverage_pct;
          Printf.sprintf "%.2f" r.Coverage.avg_cost_dist_pct;
          Printf.sprintf "%.2f" r.Coverage.avg_perf_dist_pct;
          Printf.sprintf "%.2f" r.Coverage.avg_energy_dist_pct;
          pt;
          pc;
        ];
      r
    in
    let rp = row pruned in
    let rn = row nbhd in
    let rf = row full in
    Table.print t;
    check (name ^ ": Pruned is much cheaper than Full (<= 1/3 the sims)")
      (pruned.Strategy.n_simulations * 3 <= full.Strategy.n_simulations);
    (* Pruned and Neighborhood revisit designs Full already simulated:
       the evaluation cache must be serving them *)
    check (name ^ ": strategies reuse cached evaluations (hits > 0)")
      (cs1.Mx_util.Memo_cache.hits > cs0.Mx_util.Memo_cache.hits);
    check (name ^ ": Full achieves 100% coverage of itself")
      (rf.Coverage.coverage_pct = 100.0);
    check (name ^ ": Neighborhood coverage >= Pruned coverage")
      (rn.Coverage.coverage_pct >= rp.Coverage.coverage_pct);
    check (name ^ ": Pruned finds a substantial share of the front (>= 40%)")
      (rp.Coverage.coverage_pct >= 40.0);
    check
      (name ^ ": missed points are approximated closely (avg dist <= 10%)")
      (rp.Coverage.avg_cost_dist_pct <= 10.0
      && rp.Coverage.avg_perf_dist_pct <= 10.0
      && rp.Coverage.avg_energy_dist_pct <= 10.0)
  in
  bench "compress" Mx_trace.Kern_compress.generate;
  bench "vocoder" Mx_trace.Kern_vocoder.generate;
  (* li: demonstrate the infeasibility guard the paper hit (Full omitted) *)
  print_endline "\n--- li ---";
  let li = Mx_trace.Kern_li.generate ~scale:table2_scale ~seed:7 in
  let wide_config =
    { table2_config with
      Explore.onchip = Mx_connect.Component.onchip_library;
      offchip = Mx_connect.Component.offchip_library;
      max_designs_per_level = 4096;
      jobs = !jobs }
  in
  (match
     Strategy.run ~config:wide_config ~full_budget:10_000 Strategy.Full li
   with
  | _ -> check "li: Full expected to be infeasible" false
  | exception Strategy.Full_infeasible { projected_sims; budget } ->
    Printf.printf
      "Full: infeasible at the full component catalogue (projected %d \
       simulations > budget %d) -- the paper likewise omitted li because \
       full simulation was infeasible\n"
      projected_sims budget;
    check "li: Full infeasible, as in the paper" true);
  let pruned = Strategy.run ~config:wide_config Strategy.Pruned li in
  Printf.printf
    "Pruned still completes: %d estimates, %d simulations, %.2fs\n"
    pruned.Strategy.n_estimates pruned.Strategy.n_simulations
    pruned.Strategy.wall_seconds;
  check "li: the Pruned heuristic remains feasible"
    (pruned.Strategy.n_simulations > 0);
  print_newline ()

(* -- evaluation-cache effectiveness: cold vs warm exploration -------------- *)

let cache () =
  print_endline "==================================================================";
  print_endline "Evaluation result cache -- cold vs warm exploration (compress)";
  print_endline
    "  the same exploration twice in one process: the repeat must be served";
  print_endline
    "  from the content-addressed cache and reproduce the cold run exactly";
  print_endline "==================================================================";
  let w = Mx_trace.Kern_compress.generate ~scale:table2_scale ~seed:7 in
  let config = { Explore.reduced_config with Explore.jobs = !jobs } in
  (* a fresh cache so earlier experiments cannot pre-warm the cold arm *)
  Mx_sim.Eval.set_cache_capacity Mx_sim.Eval.default_cache_capacity;
  let s0 = Mx_sim.Eval.cache_stats () in
  let cold = Explore.run ~config w in
  let warm = Explore.run ~config w in
  let s1 = Mx_sim.Eval.cache_stats () in
  let hits = s1.Mx_util.Memo_cache.hits - s0.Mx_util.Memo_cache.hits
  and misses = s1.Mx_util.Memo_cache.misses - s0.Mx_util.Memo_cache.misses in
  Json_out.record_experiment ~name:"cache:cold"
    ~wall_seconds:cold.Explore.wall_seconds ~n_estimates:cold.Explore.n_estimates
    ~n_simulations:cold.Explore.n_simulations;
  Json_out.record_experiment ~name:"cache:warm"
    ~wall_seconds:warm.Explore.wall_seconds ~n_estimates:warm.Explore.n_estimates
    ~n_simulations:warm.Explore.n_simulations;
  Printf.printf
    "cold: %.2fs    warm: %.2fs    speedup %.1fx    cache: %d hits / %d misses\n"
    cold.Explore.wall_seconds warm.Explore.wall_seconds
    (cold.Explore.wall_seconds /. Float.max 1e-9 warm.Explore.wall_seconds)
    hits misses;
  check "warm run reproduces the cold run exactly"
    (cold.Explore.n_estimates = warm.Explore.n_estimates
    && cold.Explore.simulated = warm.Explore.simulated
    && cold.Explore.pareto_cost_perf = warm.Explore.pareto_cost_perf);
  check "warm run was served from the cache (hits > 0)" (hits > 0);
  check "warm run is measurably faster (<= 0.8x cold wall time)"
    (warm.Explore.wall_seconds <= 0.8 *. cold.Explore.wall_seconds);
  print_newline ()

(* -- persistent store: warm start across a simulated restart ------------- *)

let persist () =
  print_endline "==================================================================";
  print_endline "Persistent result store -- warm start across a process restart";
  print_endline
    "  the same exploration twice with an on-disk store in between: the hot";
  print_endline
    "  tier is dropped and the store reopened (a simulated restart), so the";
  print_endline
    "  repeat must be served from disk and reproduce the cold run exactly";
  print_endline "==================================================================";
  let w = Mx_trace.Kern_compress.generate ~scale:table2_scale ~seed:7 in
  let config = { Explore.reduced_config with Explore.jobs = !jobs } in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "conex-bench-persist-%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      Mx_sim.Eval.close_persist ();
      if Sys.file_exists dir && Sys.is_directory dir then begin
        Array.iter
          (fun n ->
            try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () ->
      let open_store what =
        match Mx_sim.Eval.open_persist ~dir with
        | Ok () -> ()
        | Error e -> check (Printf.sprintf "store %s (%s)" what e) false
      in
      (* a fresh hot tier and an empty store for the cold arm *)
      Mx_sim.Eval.set_cache_capacity Mx_sim.Eval.default_cache_capacity;
      open_store "opens";
      let t0 = Unix.gettimeofday () in
      let cold = Explore.run ~config w in
      let cold_s = Unix.gettimeofday () -. t0 in
      let written =
        match Mx_sim.Eval.persist_stats () with
        | Some s -> s.Mx_util.Persist_cache.appended
        | None -> 0
      in
      (* simulated restart: drop the hot tier, close and reopen the store *)
      Mx_sim.Eval.close_persist ();
      Mx_sim.Eval.set_cache_capacity Mx_sim.Eval.default_cache_capacity;
      open_store "reopens";
      let t1 = Unix.gettimeofday () in
      let warm = Explore.run ~config w in
      let warm_s = Unix.gettimeofday () -. t1 in
      let disk_hits, recovered =
        match Mx_sim.Eval.persist_stats () with
        | Some s ->
          (s.Mx_util.Persist_cache.get_hits, s.Mx_util.Persist_cache.recovered)
        | None -> (0, 0)
      in
      Json_out.record_experiment ~name:"persist:cold" ~wall_seconds:cold_s
        ~n_estimates:cold.Explore.n_estimates
        ~n_simulations:cold.Explore.n_simulations;
      Json_out.record_experiment ~name:"persist:warm" ~wall_seconds:warm_s
        ~n_estimates:warm.Explore.n_estimates
        ~n_simulations:warm.Explore.n_simulations;
      Printf.printf
        "cold: %.2fs (%d records written)    warm: %.2fs    speedup %.1fx    \
         disk: %d hits, %d recovered\n"
        cold_s written warm_s
        (cold_s /. Float.max 1e-9 warm_s)
        disk_hits recovered;
      check "warm-start run reproduces the cold run exactly"
        (cold.Explore.n_estimates = warm.Explore.n_estimates
        && cold.Explore.simulated = warm.Explore.simulated
        && cold.Explore.pareto_cost_perf = warm.Explore.pareto_cost_perf);
      check "cold run wrote the store (records > 0)" (written > 0);
      check "the store holds no estimates (records written <= simulations)"
        (written <= cold.Explore.n_simulations);
      check "restart recovered every record written" (recovered >= written);
      check "warm-start run was served from disk (hits > 0)" (disk_hits > 0);
      check "warm-start run is measurably faster (<= 0.8x cold wall time)"
        (warm_s <= 0.8 *. cold_s);
      print_newline ())

(* -- event-log overhead: provenance on vs off --------------------------- *)

let events () =
  print_endline "==================================================================";
  print_endline "Event log -- exploration with provenance off vs on (compress)";
  print_endline
    "  the same exploration twice from a cold cache: recording the full";
  print_endline
    "  decision stream must not change any result, and every Phase I design";
  print_endline "  must reach a terminal verdict in the log";
  print_endline "==================================================================";
  let w = Mx_trace.Kern_compress.generate ~scale:table2_scale ~seed:7 in
  let config = { Explore.reduced_config with Explore.jobs = !jobs } in
  let log = Mx_util.Event_log.global in
  (* both arms cold, so the wall-time comparison is like for like *)
  Mx_sim.Eval.set_cache_capacity Mx_sim.Eval.default_cache_capacity;
  Mx_util.Event_log.set_enabled log false;
  let t0 = Unix.gettimeofday () in
  let off = Explore.run ~config w in
  let off_s = Unix.gettimeofday () -. t0 in
  Mx_sim.Eval.set_cache_capacity Mx_sim.Eval.default_cache_capacity;
  Mx_util.Event_log.reset log;
  Mx_util.Event_log.set_enabled log true;
  let t1 = Unix.gettimeofday () in
  let on = Explore.run ~config w in
  let on_s = Unix.gettimeofday () -. t1 in
  Mx_util.Event_log.set_enabled log false;
  let events = Mx_util.Event_log.events log in
  let named n = List.filter (fun (e : Mx_util.Event_log.event) -> e.name = n) events in
  let key_attr (e : Mx_util.Event_log.event) =
    match List.assoc_opt "design" e.attrs with
    | Some (Mx_util.Event_log.Str s) -> Some s
    | _ -> None
  in
  let terminal = Hashtbl.create 256 in
  List.iter
    (fun (e : Mx_util.Event_log.event) ->
      match e.name with
      | "design.kept" | "design.thinned" | "design.pruned" | "design.selected"
        ->
        Option.iter (fun k -> Hashtbl.replace terminal k ()) (key_attr e)
      | _ -> ())
    events;
  let created = named "design.created" in
  let missing =
    List.filter
      (fun e ->
        match key_attr e with
        | Some k -> not (Hashtbl.mem terminal k)
        | None -> true)
      created
  in
  Json_out.record_experiment ~name:"events:off" ~wall_seconds:off_s
    ~n_estimates:off.Explore.n_estimates ~n_simulations:off.Explore.n_simulations;
  Json_out.record_experiment ~name:"events:on" ~wall_seconds:on_s
    ~n_estimates:on.Explore.n_estimates ~n_simulations:on.Explore.n_simulations;
  Printf.printf
    "off: %.2fs    on: %.2fs (overhead %.1f%%)    %d events (%d designs, %d \
     dropped)\n"
    off_s on_s
    (100.0 *. ((on_s /. Float.max 1e-9 off_s) -. 1.0))
    (List.length events) (List.length created)
    (Mx_util.Event_log.dropped log);
  (* events on, Phase I walks every architecture's shards once more to
     emit each estimate's record and verdict; it must not change what
     the run keeps *)
  check "recording events changes no result"
    (off.Explore.n_estimates = on.Explore.n_estimates
    && off.Explore.simulated = on.Explore.simulated
    && off.Explore.pareto_cost_perf = on.Explore.pareto_cost_perf);
  check "the log is non-empty and nothing was dropped"
    (events <> [] && Mx_util.Event_log.dropped log = 0);
  check "every created design has a terminal verdict" (missing = []);
  Mx_util.Event_log.reset log;
  print_newline ()

(* -- replacement policies: miss-ratio spread on a fixed geometry --------- *)

let replacement () =
  print_endline "==================================================================";
  print_endline "Replacement policies -- miss-ratio spread (mixed workload)";
  print_endline
    "  the same access stream through one 2 KiB / 32 B / 8-way geometry under";
  print_endline
    "  every replacement policy: true LRU must reproduce its historical miss";
  print_endline "  count exactly, and the policies must actually diverge";
  print_endline "==================================================================";
  let w =
    Mx_trace.Synthetic.generate ~name:"mixed" ~scale:20_000 ~seed:1234
      ~specs:
        [
          Mx_trace.Synthetic.spec ~name:"stream" ~elems:4096 ~share:2.0
            Mx_trace.Region.Stream;
          Mx_trace.Synthetic.spec ~name:"hot" ~elems:64 ~share:2.0 ~skew:1.2
            Mx_trace.Region.Indexed;
          Mx_trace.Synthetic.spec ~name:"table" ~elems:8192 ~share:1.5
            ~skew:0.2 Mx_trace.Region.Random_access;
          Mx_trace.Synthetic.spec ~name:"list" ~elems:4096 ~share:1.5
            Mx_trace.Region.Self_indirect;
        ]
  in
  let t0 = Unix.gettimeofday () in
  let results =
    List.map
      (fun policy ->
        let c =
          Mx_mem.Cache.create
            { Mx_mem.Params.c_size = 2048; c_line = 32; c_assoc = 8;
              c_latency = 1; c_policy = policy }
        and misses = ref 0 in
        Mx_trace.Trace.iter w.Mx_trace.Workload.trace
          ~f:(fun (a : Mx_trace.Access.t) ->
            let r =
              Mx_mem.Cache.access c ~addr:a.Mx_trace.Access.addr
                ~write:(a.Mx_trace.Access.kind = Mx_trace.Access.Write)
            in
            if not r.Mx_mem.Cache.hit then incr misses);
        (policy, !misses, Mx_trace.Trace.length w.Mx_trace.Workload.trace))
      Mx_mem.Params.all_policies
  in
  let wall = Unix.gettimeofday () -. t0 in
  List.iter
    (fun (policy, misses, accesses) ->
      Printf.printf "%-12s misses %5d / %d   ratio %.4f\n"
        (Mx_mem.Params.policy_to_string policy)
        misses accesses
        (float_of_int misses /. float_of_int accesses);
      Json_out.record_stat
        ~name:
          (Printf.sprintf "replacement:%s:miss_ratio"
             (Mx_mem.Params.policy_to_string policy))
        ~value:(float_of_int misses /. float_of_int accesses))
    results;
  let lru_misses =
    List.filter_map
      (fun (p, m, _) -> if p = Mx_mem.Params.True_lru then Some m else None)
      results
  in
  let distinct =
    List.sort_uniq compare (List.map (fun (_, m, _) -> m) results)
  in
  check "true LRU reproduces the pre-refactor miss count (9377)"
    (lru_misses = [ 9377 ]);
  check "policies diverge on the mixed workload (>= 2 distinct miss counts)"
    (List.length distinct >= 2);
  Json_out.record_experiment ~name:"replacement" ~wall_seconds:wall
    ~n_estimates:0 ~n_simulations:0;
  print_newline ()

(* -- correctness harness: invariant suites + shrink path ----------------- *)

let check_harness () =
  let module Ck = Mx_check.Runner in
  print_endline "==================================================================";
  print_endline "Correctness harness -- oracle/invariant suites and the shrink path";
  print_endline
    "  every public suite must pass under a fixed master seed, and the";
  print_endline
    "  deliberately broken selftest oracle must be caught and shrunk to a";
  print_endline "  minimal, reproducible counterexample";
  print_endline "==================================================================";
  let t0 = Unix.gettimeofday () in
  let reports =
    List.map
      (fun suite -> Ck.run_suite ~master:42 ~count:100 suite)
      (Mx_check.Suites.all ~jobs:!jobs ())
  in
  let wall = Unix.gettimeofday () -. t0 in
  let cases =
    List.fold_left (fun acc (r : Ck.report) -> acc + r.Ck.cases) 0 reports
  in
  Printf.printf "%d suites, %d cases in %.2fs\n" (List.length reports) cases
    wall;
  List.iter
    (fun (r : Ck.report) ->
      check
        (Printf.sprintf "invariant suite '%s' passes" r.Ck.suite)
        (r.Ck.failures = []))
    reports;
  (match Mx_check.Suites.find "selftest" with
  | None -> check "selftest suite is resolvable by name" false
  | Some props -> (
    let r = Ck.run_suite ~master:42 ~count:10 ("selftest", props) in
    match r.Ck.failures with
    | [ f ] ->
      Printf.printf "selftest counterexample: %s\n  repro: %s\n" f.Ck.message
        (Ck.repro ~suite:"selftest" f);
      check "selftest counterexample is caught and shrunk to size 2"
        (f.Ck.size = 2 && f.Ck.shrunk_from >= f.Ck.size)
    | fs ->
      check
        (Printf.sprintf "selftest produced exactly one failure (got %d)"
           (List.length fs))
        false));
  Json_out.record_experiment ~name:"check" ~wall_seconds:wall ~n_estimates:0
    ~n_simulations:0;
  print_newline ()

(* -- sharded exploration: scaling, byte-stability, anytime validity ------- *)

let shard_summary (r : Explore.result) =
  ( r.Explore.n_estimates,
    r.Explore.n_simulations,
    List.map
      (fun d ->
        (Design.structural_key d, Design.cost d, Design.latency d,
         Design.energy d))
      r.Explore.simulated,
    List.map Design.structural_key r.Explore.pareto_cost_perf )

let shard () =
  print_endline "==================================================================";
  print_endline "Sharded exploration -- shard scaling, byte-stability, anytime front";
  print_endline
    "  the shard work-queue must be invisible in the results (same designs,";
  print_endline
    "  same order, same front at every shards x jobs point) and the anytime";
  print_endline
    "  archive must emit a valid front when the run is interrupted mid-way";
  print_endline "==================================================================";
  let w = Mx_trace.Kern_compress.generate ~scale:table2_scale ~seed:7 in
  let config ~shards ~jobs =
    { Explore.reduced_config with Explore.jobs; shards }
  in
  (* shard-count scaling at the full jobs level *)
  let reference = ref None in
  List.iter
    (fun shards ->
      Mx_sim.Eval.clear_cache ();
      let t0 = Unix.gettimeofday () in
      let r = Explore.run ~config:(config ~shards ~jobs:!jobs) w in
      let wall = Unix.gettimeofday () -. t0 in
      Printf.printf "  shards=%-3d jobs=%-2d  %6.2fs  %4d est  %3d sim  %2d pareto\n"
        shards !jobs wall r.Explore.n_estimates r.Explore.n_simulations
        (List.length r.Explore.pareto_cost_perf);
      Json_out.record_experiment
        ~name:(Printf.sprintf "shard:shards=%d,jobs=%d" shards !jobs)
        ~wall_seconds:wall ~n_estimates:r.Explore.n_estimates
        ~n_simulations:r.Explore.n_simulations;
      match !reference with
      | None -> reference := Some (shard_summary r)
      | Some b ->
        check
          (Printf.sprintf "shards=%d results byte-identical to shards=1"
             shards)
          (shard_summary r = b))
    [ 1; 2; 4; 8 ];
  (* byte-stability across the shards x jobs grid *)
  List.iter
    (fun (shards, jobs) ->
      Mx_sim.Eval.clear_cache ();
      let r = Explore.run ~config:(config ~shards ~jobs) w in
      check
        (Printf.sprintf "shards=%d jobs=%d byte-stable" shards jobs)
        (Some (shard_summary r) = !reference))
    [ (1, 1); (4, 1); (4, 2) ];
  (* anytime validity: interrupt half-way through the committed work and
     the emitted front must still be a pareto front of exactly the
     committed prefix *)
  Mx_sim.Eval.clear_cache ();
  let total_polls = ref 0 in
  let count_only () =
    incr total_polls;
    false
  in
  let full =
    Explore.run ~config:(config ~shards:4 ~jobs:!jobs) ~interrupt:count_only w
  in
  (* aim the interrupt mid phase II so the committed prefix holds real
     simulations, not just drained phase-I shards *)
  let budget = !total_polls - ((full.Explore.n_simulations + 1) / 2) in
  Mx_sim.Eval.clear_cache ();
  let polls = ref 0 in
  let interrupt () =
    incr polls;
    !polls > budget
  in
  let t0 = Unix.gettimeofday () in
  let r = Explore.run ~config:(config ~shards:4 ~jobs:!jobs) ~interrupt w in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf
    "  interrupted after %d of %d polls: %d of %d simulations committed, %d \
     pareto (%.2fs)\n"
    budget !total_polls r.Explore.n_simulations full.Explore.n_simulations
    (List.length r.Explore.pareto_cost_perf)
    wall;
  check "interrupting mid-run reports interrupted" r.Explore.interrupted;
  check "anytime front = pareto front of the committed prefix"
    (List.map Design.structural_key r.Explore.pareto_cost_perf
    = List.map Design.structural_key
        (Mx_util.Pareto.front2 ~x:Design.cost ~y:Design.latency
           r.Explore.simulated));
  check "committed simulations are a prefix of the full run's"
    (let keys = List.map Design.structural_key r.Explore.simulated in
     let full_keys = List.map Design.structural_key full.Explore.simulated in
     List.length keys <= List.length full_keys
     && keys = List.filteri (fun i _ -> i < List.length keys) full_keys);
  Json_out.record_experiment ~name:"shard:anytime" ~wall_seconds:wall
    ~n_estimates:r.Explore.n_estimates ~n_simulations:r.Explore.n_simulations;
  print_newline ()

let all () =
  fig3 ();
  fig4 ();
  fig6 ();
  table1 ();
  table2 ();
  cache ();
  persist ();
  events ();
  replacement ();
  shard ();
  check_harness ()
