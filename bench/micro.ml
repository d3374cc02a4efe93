(* Bechamel micro-benchmarks: one Test.make per table/figure, measuring
   the core computational kernel behind that experiment, plus the
   simulator/estimator building blocks.  Results are printed as
   nanoseconds per run (OLS estimate against the monotonic clock). *)

open Bechamel
open Toolkit

let prepared =
  lazy
    (let w = Mx_trace.Kern_compress.generate ~scale:20_000 ~seed:7 in
     let profile = Mx_trace.Profile.analyze w in
     let arch =
       Mx_mem.Mem_arch.make ~label:"bench"
         ~cache:{ Mx_mem.Params.c_size = 8192; c_line = 32; c_assoc = 2; c_latency = 1; c_policy = Mx_mem.Params.default_policy }
         ~bindings:
           (Array.make (List.length w.Mx_trace.Workload.regions)
              Mx_mem.Mem_arch.To_cache)
         ()
     in
     let stats =
       let m = Mx_mem.Mem_sim.create arch ~regions:w.Mx_trace.Workload.regions in
       Mx_mem.Mem_sim.run m w.Mx_trace.Workload.trace
     in
     let brg = Mx_connect.Brg.build arch stats in
     let conns =
       Mx_connect.Assign.enumerate_levels
         ~onchip:Mx_connect.Component.onchip_library
         ~offchip:Mx_connect.Component.offchip_library brg.Mx_connect.Brg.channels
     in
     (w, profile, arch, stats, brg, conns))

let test_fig3_apex_evaluation =
  Test.make ~name:"fig3: APEX candidate evaluation (20k trace)"
    (Staged.stage @@ fun () ->
     let _, profile, arch, _, _, _ = Lazy.force prepared in
     ignore (Mx_apex.Explore.evaluate profile arch))

let test_fig3_apex_explore =
  Test.make ~name:"fig3: APEX explore, reduced catalogue (20k trace)"
    (Staged.stage @@ fun () ->
     let _, profile, _, _, _, _ = Lazy.force prepared in
     ignore
       (Mx_apex.Explore.explore ~config:Mx_apex.Explore.reduced_config profile))

(* The default catalogue pairs each L1 with victim-buffer and L2
   variants, so this one shows the shared L1 pass. *)
let test_fig3_apex_explore_default =
  Test.make ~name:"fig3: APEX explore, default catalogue (20k trace)"
    (Staged.stage @@ fun () ->
     let _, profile, _, _, _, _ = Lazy.force prepared in
     ignore (Mx_apex.Explore.explore profile))

let test_fig4_phase1_estimate =
  Test.make ~name:"fig4: ConEx phase-I estimate (one candidate)"
    (Staged.stage @@ fun () ->
     let w, _, arch, stats, _, conns = Lazy.force prepared in
     ignore
       (Mx_sim.Estimator.estimate ~workload:w ~arch ~profile:stats
          ~conn:(List.hd conns)))

(* Phase I's per-architecture loop: one plan, then every enumerated
   connectivity of the architecture estimated over it. *)
let test_fig4_phase1_shared_plan =
  Test.make
    ~name:"fig4: phase-I estimates, all connectivities, one plan"
    (Staged.stage @@ fun () ->
     let w, _, arch, stats, _, conns = Lazy.force prepared in
     let plan = Mx_sim.Estimator.prepare ~workload:w ~arch ~profile:stats in
     List.iter (fun conn -> ignore (Mx_sim.Estimator.run plan ~conn)) conns)

let test_fig6_pareto_annotation =
  Test.make ~name:"fig6: pareto front over 1000 points"
    (Staged.stage
    @@
    let pts =
      List.init 1000 (fun i ->
          let f = float_of_int i in
          (Float.rem (f *. 7.31) 103.0, Float.rem (f *. 3.77) 97.0))
    in
    fun () ->
      ignore (Mx_util.Pareto.front2 ~x:fst ~y:snd pts))

let test_fig6_pareto_front3 =
  Test.make ~name:"fig6: 3-axis pareto front over 10000 points"
    (Staged.stage
    @@
    let pts =
      List.init 10_000 (fun i ->
          let f = float_of_int i in
          [| Float.rem (f *. 7.31) 103.0; Float.rem (f *. 3.77) 97.0;
             Float.rem (f *. 5.13) 89.0 |])
    in
    let axes = List.init 3 (fun k (p : float array) -> p.(k)) in
    fun () -> ignore (Mx_util.Pareto.front ~axes pts))

let test_table1_cycle_sim =
  Test.make ~name:"table1: full cycle simulation (20k trace)"
    (Staged.stage @@ fun () ->
     let w, _, arch, _, _, conns = Lazy.force prepared in
     ignore (Mx_sim.Cycle_sim.run ~workload:w ~arch ~conn:(List.hd conns) ()))

let test_table1_sampled_sim =
  Test.make ~name:"table1: 1/9 time-sampled simulation (20k trace)"
    (Staged.stage @@ fun () ->
     let w, _, arch, _, _, conns = Lazy.force prepared in
     ignore
       (Mx_sim.Cycle_sim.run ~sample:Mx_sim.Cycle_sim.default_sample ~workload:w
          ~arch ~conn:(List.hd conns) ()))

(* The two stages of a simulation, apart: the module-level recording
   once per architecture, then the timing of one connectivity over it
   (the loop Phase II and Full run once per design). *)
let test_table1_record =
  Test.make ~name:"table1: record module outcomes (20k trace)"
    (Staged.stage @@ fun () ->
     let w, _, arch, _, _, _ = Lazy.force prepared in
     ignore (Mx_sim.Cycle_sim.record ~workload:w ~arch ()))

let recorded =
  lazy
    (let w, _, arch, _, _, _ = Lazy.force prepared in
     Mx_sim.Cycle_sim.record ~workload:w ~arch ())

let test_table1_time =
  Test.make
    ~name:"table1: time one connectivity over a recorded column (20k trace)"
    (Staged.stage @@ fun () ->
     let _, _, _, _, _, conns = Lazy.force prepared in
     ignore (Mx_sim.Cycle_sim.time (Lazy.force recorded) ~conn:(List.hd conns)))

let test_table2_clustering =
  Test.make ~name:"table2: clustering levels + feasible assignments"
    (Staged.stage @@ fun () ->
     let _, _, _, _, brg, _ = Lazy.force prepared in
     ignore
       (Mx_connect.Assign.enumerate_levels
          ~onchip:Mx_connect.Component.onchip_library
          ~offchip:Mx_connect.Component.offchip_library
          brg.Mx_connect.Brg.channels))

let test_substrate_cache =
  Test.make ~name:"substrate: cache simulator (10k accesses)"
    (Staged.stage
    @@
    let g = Mx_util.Prng.create ~seed:3 in
    let addrs = Array.init 10_000 (fun _ -> Mx_util.Prng.int g ~bound:1_000_000) in
    fun () ->
      let c =
        Mx_mem.Cache.create
          { Mx_mem.Params.c_size = 8192; c_line = 32; c_assoc = 2; c_latency = 1; c_policy = Mx_mem.Params.default_policy }
      in
      Array.iter (fun addr -> ignore (Mx_mem.Cache.access c ~addr ~write:false)) addrs)

let test_substrate_trace_gen =
  Test.make ~name:"substrate: compress kernel trace generation (5k)"
    (Staged.stage @@ fun () ->
     ignore (Mx_trace.Kern_compress.generate ~scale:5_000 ~seed:1))

let tests =
  [
    test_fig3_apex_evaluation;
    test_fig3_apex_explore;
    test_fig4_phase1_estimate;
    test_fig4_phase1_shared_plan;
    test_fig6_pareto_annotation;
    test_fig6_pareto_front3;
    test_table1_cycle_sim;
    test_table1_sampled_sim;
    test_table1_record;
    test_table1_time;
    test_table2_clustering;
    test_substrate_cache;
    test_substrate_trace_gen;
    (* last: it grows the heap, which slows the allocating tests after it *)
    test_fig3_apex_explore_default;
  ]

(* -- parallel scaling: serial vs task-pool exploration ------------------- *)

let scaling ?(jobs_levels = [ 1; 2; 4 ]) () =
  print_endline "==================================================================";
  print_endline "Scaling -- Explore.run wall time vs jobs (fig3-class workload)";
  Printf.printf "  Domain.recommended_domain_count = %d\n"
    (Domain.recommended_domain_count ());
  print_endline "==================================================================";
  let w = Mx_trace.Kern_compress.generate ~scale:40_000 ~seed:7 in
  let run_at jobs =
    let config = { Conex.Explore.reduced_config with Conex.Explore.jobs } in
    let t0 = Unix.gettimeofday () in
    let r = Conex.Explore.run ~config w in
    (r, Unix.gettimeofday () -. t0)
  in
  let serial, t_serial = run_at 1 in
  let t =
    Mx_util.Table.create
      ~headers:[ "jobs"; "wall [s]"; "speedup"; "identical to serial" ]
  in
  List.iter
    (fun jobs ->
      let r, secs = if jobs = 1 then (serial, t_serial) else run_at jobs in
      let speedup = t_serial /. Float.max 1e-9 secs in
      (* the determinism guarantee: same designs, same order, same front *)
      let identical =
        List.map Conex.Design.id r.Conex.Explore.simulated
          = List.map Conex.Design.id serial.Conex.Explore.simulated
        && r.Conex.Explore.simulated = serial.Conex.Explore.simulated
        && r.Conex.Explore.pareto_cost_perf
           = serial.Conex.Explore.pareto_cost_perf
      in
      Mx_util.Table.add_row t
        [
          string_of_int jobs;
          Printf.sprintf "%.2f" secs;
          Printf.sprintf "%.2fx" speedup;
          (if identical then "yes" else "NO");
        ];
      Json_out.record_scaling ~bench:"explore:compress-40k" ~jobs
        ~wall_seconds:secs ~speedup;
      Experiments.check
        (Printf.sprintf "jobs=%d results byte-identical to serial" jobs)
        identical)
    jobs_levels;
  Mx_util.Table.print t;
  print_newline ()

let run () =
  print_endline "==================================================================";
  print_endline "Micro-benchmarks (bechamel, OLS vs monotonic clock)";
  print_endline "==================================================================";
  ignore (Lazy.force prepared);
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None () in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some (x :: _) -> x
            | _ -> nan
          in
          Printf.printf "  %-55s %12.0f ns/run\n%!" (Test.Elt.name elt) ns)
        (Test.elements test))
    tests
