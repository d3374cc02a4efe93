(* Tests for the second extension wave: new kernels, victim cache,
   write buffer, trace persistence, CSV export, workload concatenation
   and the non-blocking CPU model. *)

module Params = Mx_mem.Params
module Victim = Mx_mem.Victim_cache
module Wbuf = Mx_mem.Write_buffer
module Mem_arch = Mx_mem.Mem_arch
module Mem_sim = Mx_mem.Mem_sim
module Workload = Mx_trace.Workload
module Trace_io = Mx_trace.Trace_io
module Region = Mx_trace.Region

(* -- new kernels ----------------------------------------------------- *)

let new_kernels =
  [
    ("jpeg", Mx_trace.Kern_jpeg.generate);
    ("fft", Mx_trace.Kern_fft.generate);
    ("dijkstra", Mx_trace.Kern_graph.generate);
  ]

let test_new_kernels_basics () =
  List.iter
    (fun (name, gen) ->
      let w = gen ~scale:12000 ~seed:3 in
      Helpers.check_true (name ^ " reaches scale")
        (Mx_trace.Trace.length w.Workload.trace >= 12000);
      Helpers.check_true (name ^ " has compute work") (w.Workload.cpu_ops > 0);
      let ok = ref true in
      Mx_trace.Trace.iter w.Workload.trace ~f:(fun a ->
          let r = List.nth w.Workload.regions a.Mx_trace.Access.region in
          if not (Region.contains r a.Mx_trace.Access.addr) then ok := false);
      Helpers.check_true (name ^ " addresses within regions") !ok)
    new_kernels

let test_new_kernels_deterministic () =
  List.iter
    (fun (name, gen) ->
      let a = gen ~scale:6000 ~seed:5 and b = gen ~scale:6000 ~seed:5 in
      Helpers.check_int (name ^ " deterministic")
        (Mx_trace.Trace.length a.Workload.trace)
        (Mx_trace.Trace.length b.Workload.trace))
    new_kernels

let test_jpeg_hot_block () =
  let w = Mx_trace.Kern_jpeg.generate ~scale:20000 ~seed:3 in
  let p = Mx_trace.Profile.analyze w in
  let work = Mx_trace.Profile.stats p (Workload.region_by_name w "work") in
  Helpers.check_true "DCT working block is hot and tiny"
    (work.Mx_trace.Profile.footprint <= 256
    && work.Mx_trace.Profile.detected = Region.Indexed)

let test_fft_strided_buffer () =
  let w = Mx_trace.Kern_fft.generate ~scale:40000 ~seed:3 in
  let p = Mx_trace.Profile.analyze w in
  let buf = Mx_trace.Profile.stats p (Workload.region_by_name w "buf") in
  (* butterflies touch the whole frame repeatedly but not sequentially *)
  Helpers.check_true "fft buffer is neither stream nor hot-indexed"
    (buf.Mx_trace.Profile.detected = Region.Random_access
    || buf.Mx_trace.Profile.detected = Region.Mixed)

let test_dijkstra_edges_chased () =
  let w = Mx_trace.Kern_graph.generate ~scale:30000 ~seed:3 in
  let p = Mx_trace.Profile.analyze w in
  let edges = Workload.region_by_name w "edges" in
  Helpers.check_true "edge arena is self-indirect by hint"
    (Mx_trace.Profile.pattern p edges = Region.Self_indirect)

(* -- victim cache ----------------------------------------------------- *)

let victim_params = { Params.v_entries = 4; v_latency = 1 }

(* [probe]: a main-cache miss on [line] that evicted nothing clean.
   [insert]: a miss that evicted clean [line], on a line never
   buffered. *)
let probe v ~line = Victim.recover v ~evicted:(-1) ~line
let insert v ~line = ignore (Victim.recover v ~evicted:line ~line:1000)

let test_victim_probe_insert () =
  let v = Victim.create victim_params in
  Helpers.check_true "empty probe misses" (not (probe v ~line:42));
  insert v ~line:42;
  Helpers.check_true "inserted line hits" (probe v ~line:42);
  (* the probe removed it (swap back into the main cache) *)
  Helpers.check_true "probe consumes the line" (not (probe v ~line:42))

let test_victim_lru_displacement () =
  let v = Victim.create victim_params in
  List.iter (fun l -> insert v ~line:l) [ 1; 2; 3; 4; 5 ];
  Helpers.check_true "oldest displaced" (not (probe v ~line:1));
  Helpers.check_true "newest resident" (probe v ~line:5);
  (* full again as 2 3 4 6: the miss on 2 evicts clean line 7, whose
     insertion displaces 2 before the probe looks for it *)
  insert v ~line:6;
  Helpers.check_true "a miss's own eviction displaces the missed line"
    (not (Victim.recover v ~evicted:7 ~line:2));
  Helpers.check_true "the eviction is resident" (probe v ~line:7)

let test_victim_reduces_conflict_misses () =
  (* a conflict working set that thrashes a direct-mapped cache is fully
     recovered by a victim buffer *)
  let regions =
    [ { Region.id = 0; name = "a"; base = 0; size = 1 lsl 20; elem_size = 4;
        hint = Region.Random_access } ]
  in
  let cache = { Params.c_size = 1024; c_line = 16; c_assoc = 1; c_latency = 1; c_policy = Params.default_policy } in
  let bindings = [| Mem_arch.To_cache |] in
  let plain = Mem_arch.make ~label:"plain" ~cache ~bindings () in
  let with_v =
    Mem_arch.make ~label:"victim" ~cache ~victim:victim_params ~bindings ()
  in
  let trace = Mx_trace.Trace.create () in
  (* two lines mapping to the same set, alternating *)
  for _ = 1 to 200 do
    Mx_trace.Trace.add trace ~addr:0 ~size:4 ~kind:Mx_trace.Access.Read ~region:0;
    Mx_trace.Trace.add trace ~addr:1024 ~size:4 ~kind:Mx_trace.Access.Read
      ~region:0
  done;
  let run arch =
    Mem_sim.run (Mem_sim.create arch ~regions) trace
  in
  let s_plain = run plain and s_victim = run with_v in
  Helpers.check_true "plain cache thrashes"
    (s_plain.Mem_sim.demand_misses > 300);
  Helpers.check_true "victim recovers the conflicts"
    (s_victim.Mem_sim.demand_misses < 10);
  Helpers.check_true "victim hits counted" (s_victim.Mem_sim.victim_hits > 300)

let test_victim_requires_cache () =
  Helpers.check_true "victim without cache rejected"
    (try
       ignore
         (Mem_arch.make ~label:"bad" ~victim:victim_params
            ~bindings:[| Mem_arch.To_cache |] ());
       false
     with Invalid_argument _ -> true)

(* -- write buffer ------------------------------------------------------ *)

let wb_params = { Params.wb_entries = 2; wb_drain = 10 }

let test_wbuf_absorb_and_stall () =
  let b = Wbuf.create wb_params and stalls = ref 0 in
  let write ~now ~line =
    let r = Wbuf.write b ~now ~line in
    if r = `Stall then incr stalls;
    r
  in
  Helpers.check_true "first store absorbed" (write ~now:0 ~line:1 = `Absorbed);
  Helpers.check_true "same line coalesces" (write ~now:1 ~line:1 = `Coalesced);
  Helpers.check_true "second line absorbed" (write ~now:2 ~line:2 = `Absorbed);
  Helpers.check_true "third line stalls" (write ~now:3 ~line:3 = `Stall);
  Helpers.check_int "stall counted" 1 !stalls

let test_wbuf_drains_over_time () =
  let b = Wbuf.create wb_params in
  ignore (Wbuf.write b ~now:0 ~line:1);
  ignore (Wbuf.write b ~now:0 ~line:2);
  Helpers.check_int "full" 2 (Wbuf.occupancy b ~now:0);
  Helpers.check_int "one drained" 1 (Wbuf.occupancy b ~now:10);
  Helpers.check_int "both drained" 0 (Wbuf.occupancy b ~now:20);
  Helpers.check_true "room again" (Wbuf.write b ~now:21 ~line:3 = `Absorbed)

let test_wbuf_read_forwarding () =
  let b = Wbuf.create wb_params in
  ignore (Wbuf.write b ~now:0 ~line:7);
  Helpers.check_true "buffered line forwards" (Wbuf.read_forward b ~now:1 ~line:7);
  Helpers.check_true "other line does not" (not (Wbuf.read_forward b ~now:1 ~line:8))

let test_wbuf_unstalls_direct_writes () =
  (* a cache-less architecture with a write buffer posts its stores *)
  let regions =
    [ { Region.id = 0; name = "out"; base = 0; size = 65536; elem_size = 4;
        hint = Region.Stream } ]
  in
  let bindings = [| Mem_arch.To_cache |] in
  let plain = Mem_arch.make ~label:"plain" ~bindings () in
  let with_wb =
    Mem_arch.make ~label:"wbuf"
      ~wbuf:{ Params.wb_entries = 8; wb_drain = 1 } ~bindings ()
  in
  let trace = Mx_trace.Trace.create () in
  for i = 0 to 499 do
    Mx_trace.Trace.add trace ~addr:(i * 64) ~size:4 ~kind:Mx_trace.Access.Write
      ~region:0
  done;
  let run arch = Mem_sim.run (Mem_sim.create arch ~regions) trace in
  let s_plain = run plain and s_wb = run with_wb in
  Helpers.check_int "unbuffered stores all stall" 500
    s_plain.Mem_sim.demand_misses;
  Helpers.check_true "buffered stores mostly posted"
    (s_wb.Mem_sim.demand_misses < 100)

(* note: with MSHR overlap the CPU issues faster, so buses see more
   pressure; "never slower" only holds up to a small contention
   epsilon *)

(* -- trace persistence ---------------------------------------------------- *)

let test_trace_io_roundtrip () =
  let w = Helpers.mixed_workload ~scale:2000 () in
  let w2 = Trace_io.of_string (Trace_io.to_string w) in
  Helpers.check_true "name" (w2.Workload.name = w.Workload.name);
  Helpers.check_int "cpu_ops" w.Workload.cpu_ops w2.Workload.cpu_ops;
  Helpers.check_true "regions" (w2.Workload.regions = w.Workload.regions);
  Helpers.check_int "trace length"
    (Mx_trace.Trace.length w.Workload.trace)
    (Mx_trace.Trace.length w2.Workload.trace);
  let same = ref true in
  for i = 0 to Mx_trace.Trace.length w.Workload.trace - 1 do
    if Mx_trace.Trace.get w.Workload.trace i <> Mx_trace.Trace.get w2.Workload.trace i
    then same := false
  done;
  Helpers.check_true "identical accesses" !same

let test_trace_io_file_roundtrip () =
  let w = Helpers.stream_workload ~scale:500 () in
  let path = Filename.temp_file "mxtrace" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save w ~path;
      let w2 = Trace_io.load ~path in
      Helpers.check_int "file roundtrip length"
        (Mx_trace.Trace.length w.Workload.trace)
        (Mx_trace.Trace.length w2.Workload.trace))

let expect_parse_error s =
  try
    ignore (Trace_io.of_string s);
    false
  with Trace_io.Parse_error _ -> true

let test_trace_io_rejects_garbage () =
  Helpers.check_true "missing header" (expect_parse_error "R 0x0 4 0\n");
  Helpers.check_true "bad line"
    (expect_parse_error "workload x\nnot a line at all extra words here\n");
  Helpers.check_true "bad integer" (expect_parse_error "workload x\ncpu_ops ten\n");
  Helpers.check_true "bad pattern"
    (expect_parse_error "workload x\nregion 0 r 0x0 64 4 zigzag\n");
  Helpers.check_true "length mismatch"
    (expect_parse_error "workload x\ntrace 5\nR 0x0 4 0\n")

(* -- workload concat ----------------------------------------------------- *)

let test_concat () =
  let a = Helpers.stream_workload ~scale:300 ()
  and b = Helpers.stream_workload ~scale:200 () in
  let c = Workload.concat ~name:"phases" [ a; b ] in
  Helpers.check_int "lengths add" 500 (Mx_trace.Trace.length c.Workload.trace);
  Helpers.check_int "cpu ops add" (a.Workload.cpu_ops + b.Workload.cpu_ops)
    c.Workload.cpu_ops;
  Helpers.check_true "empty rejected"
    (try
       ignore (Workload.concat ~name:"x" []);
       false
     with Invalid_argument _ -> true);
  let other = Helpers.mixed_workload ~scale:100 () in
  Helpers.check_true "mismatched regions rejected"
    (try
       ignore (Workload.concat ~name:"x" [ a; other ]);
       false
     with Invalid_argument _ -> true)

(* -- CSV export ------------------------------------------------------------ *)

let test_csv_export () =
  let w = Helpers.mixed_workload ~scale:4000 () in
  let r = Conex.Explore.run ~config:Conex.Explore.reduced_config w in
  let csv = Conex.Report.to_csv r.Conex.Explore.simulated in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Helpers.check_int "one row per design + header"
    (List.length r.Conex.Explore.simulated + 1)
    (List.length lines);
  Helpers.check_true "header present"
    (String.length (List.hd lines) > 0
    && String.sub (List.hd lines) 0 8 = "workload");
  (* quoted connectivity fields keep the comma count consistent *)
  List.iter
    (fun line ->
      let in_quotes = ref false and commas = ref 0 in
      String.iter
        (fun c ->
          if c = '"' then in_quotes := not !in_quotes
          else if c = ',' && not !in_quotes then incr commas)
        line;
      Helpers.check_int "7 separators per row" 7 !commas)
    lines

(* -- non-blocking CPU -------------------------------------------------------- *)

let test_overlap_never_slower () =
  let w = Helpers.mixed_workload ~scale:6000 () in
  let arch = Helpers.cache_only_arch w in
  let brg = Mx_connect.Brg.build arch (Helpers.profile_of arch w) in
  let conn = Helpers.naive_conn brg in
  let blocking = Mx_sim.Cycle_sim.run ~workload:w ~arch ~conn () in
  List.iter
    (fun mlp ->
      let o =
        Mx_sim.Cycle_sim.run ~cpu:(Mx_sim.Cycle_sim.Overlap mlp) ~workload:w
          ~arch ~conn ()
      in
      Helpers.check_true
        (Printf.sprintf "mlp %d not meaningfully slower" mlp)
        (o.Mx_sim.Sim_result.avg_mem_latency
        <= blocking.Mx_sim.Sim_result.avg_mem_latency *. 1.05 +. 0.1))
    [ 1; 2; 8 ]

let test_overlap_monotone_in_mshrs () =
  let w = Helpers.mixed_workload ~scale:6000 () in
  let arch = Helpers.cache_only_arch w in
  let brg = Mx_connect.Brg.build arch (Helpers.profile_of arch w) in
  let conn = Helpers.naive_conn brg in
  let lat mlp =
    (Mx_sim.Cycle_sim.run ~cpu:(Mx_sim.Cycle_sim.Overlap mlp) ~workload:w ~arch
       ~conn ())
      .Mx_sim.Sim_result.avg_mem_latency
  in
  Helpers.check_true "more MSHRs never meaningfully hurt"
    (lat 8 <= lat 1 *. 1.05 +. 0.1)

let test_run_traced_consistency () =
  let w = Helpers.mixed_workload ~scale:6000 () in
  let arch = Helpers.cache_only_arch w in
  let brg = Mx_connect.Brg.build arch (Helpers.profile_of arch w) in
  let conn = Helpers.naive_conn brg in
  let r1 = Mx_sim.Cycle_sim.run ~workload:w ~arch ~conn () in
  let r2, stats = Mx_sim.Cycle_sim.run_traced ~workload:w ~arch ~conn () in
  Helpers.check_float "run = run_traced" r1.Mx_sim.Sim_result.avg_mem_latency
    r2.Mx_sim.Sim_result.avg_mem_latency;
  Helpers.check_int "one stat per binding"
    (List.length conn.Mx_connect.Conn_arch.bindings)
    (List.length stats);
  List.iter
    (fun (b : Mx_sim.Cycle_sim.bus_stat) ->
      Helpers.check_true "utilisation in [0,1]"
        (b.Mx_sim.Cycle_sim.utilization >= 0.0
        && b.Mx_sim.Cycle_sim.utilization <= 1.0);
      Helpers.check_true "txns non-negative" (b.Mx_sim.Cycle_sim.txns >= 0))
    stats;
  let total_waits =
    List.fold_left
      (fun acc (b : Mx_sim.Cycle_sim.bus_stat) ->
        acc + b.Mx_sim.Cycle_sim.wait_cycles)
      0 stats
  in
  Helpers.check_int "waits partition bus_wait_cycles"
    r2.Mx_sim.Sim_result.bus_wait_cycles total_waits

let test_refine_top_exactness () =
  (* with sampling + refinement, the pareto designs end up exact *)
  let w = Helpers.mixed_workload ~scale:8000 () in
  let config =
    { Conex.Explore.reduced_config with
      Conex.Explore.sample = Some (500, 4500);
      refine_top = 4 }
  in
  let r = Conex.Explore.run ~config w in
  let refined =
    List.filteri (fun i _ -> i < 4) r.Conex.Explore.pareto_cost_perf
  in
  Helpers.check_true "refined front designs carry exact metrics"
    (refined <> []
    && List.for_all
         (fun (d : Conex.Design.t) ->
           (Conex.Design.best_result d).Mx_sim.Sim_result.exact)
         refined)

let test_overlap_validation () =
  let w = Helpers.mixed_workload ~scale:100 () in
  let arch = Helpers.cache_only_arch w in
  let brg = Mx_connect.Brg.build arch (Helpers.profile_of arch w) in
  Helpers.check_true "0 MSHRs rejected"
    (try
       ignore
         (Mx_sim.Cycle_sim.run ~cpu:(Mx_sim.Cycle_sim.Overlap 0) ~workload:w
            ~arch ~conn:(Helpers.naive_conn brg) ());
       false
     with Invalid_argument _ -> true)

let suite =
  ( "extensions2",
    [
      Alcotest.test_case "new kernels basics" `Slow test_new_kernels_basics;
      Alcotest.test_case "new kernels deterministic" `Quick test_new_kernels_deterministic;
      Alcotest.test_case "jpeg hot block" `Quick test_jpeg_hot_block;
      Alcotest.test_case "fft strided buffer" `Quick test_fft_strided_buffer;
      Alcotest.test_case "dijkstra edges" `Quick test_dijkstra_edges_chased;
      Alcotest.test_case "victim probe/insert" `Quick test_victim_probe_insert;
      Alcotest.test_case "victim LRU" `Quick test_victim_lru_displacement;
      Alcotest.test_case "victim recovers conflicts" `Quick test_victim_reduces_conflict_misses;
      Alcotest.test_case "victim needs cache" `Quick test_victim_requires_cache;
      Alcotest.test_case "wbuf absorb/stall" `Quick test_wbuf_absorb_and_stall;
      Alcotest.test_case "wbuf drains" `Quick test_wbuf_drains_over_time;
      Alcotest.test_case "wbuf forwarding" `Quick test_wbuf_read_forwarding;
      Alcotest.test_case "wbuf posts stores" `Quick test_wbuf_unstalls_direct_writes;
      Alcotest.test_case "trace io roundtrip" `Quick test_trace_io_roundtrip;
      Alcotest.test_case "trace io file" `Quick test_trace_io_file_roundtrip;
      Alcotest.test_case "trace io errors" `Quick test_trace_io_rejects_garbage;
      Alcotest.test_case "workload concat" `Quick test_concat;
      Alcotest.test_case "csv export" `Slow test_csv_export;
      Alcotest.test_case "overlap never slower" `Quick test_overlap_never_slower;
      Alcotest.test_case "overlap monotone" `Quick test_overlap_monotone_in_mshrs;
      Alcotest.test_case "overlap validation" `Quick test_overlap_validation;
      Alcotest.test_case "run_traced consistency" `Quick test_run_traced_consistency;
      Alcotest.test_case "refine_top exactness" `Slow test_refine_top_exactness;
    ] )
