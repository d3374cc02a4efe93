(* Cycle simulator, analytic estimator, time sampling. *)

module Cycle_sim = Mx_sim.Cycle_sim
module Estimator = Mx_sim.Estimator
module Sim_result = Mx_sim.Sim_result
module Brg = Mx_connect.Brg
module Component = Mx_connect.Component
module Cluster = Mx_connect.Cluster
module Conn_arch = Mx_connect.Conn_arch

let setup ?(rich = false) () =
  let w = Helpers.mixed_workload () in
  let arch = if rich then Helpers.rich_arch w else Helpers.cache_only_arch w in
  let profile = Helpers.profile_of arch w in
  let brg = Brg.build arch profile in
  (w, arch, profile, brg)

let test_sim_basic_sanity () =
  let w, arch, _, brg = setup () in
  let r = Cycle_sim.run ~workload:w ~arch ~conn:(Helpers.naive_conn brg) () in
  Helpers.check_int "all accesses simulated"
    (Mx_trace.Trace.length w.Mx_trace.Workload.trace)
    r.Sim_result.accesses;
  Helpers.check_true "latency positive" (r.Sim_result.avg_mem_latency > 0.0);
  Helpers.check_true "energy positive" (r.Sim_result.avg_energy_nj > 0.0);
  Helpers.check_true "cycles >= accesses" (r.Sim_result.cycles >= r.Sim_result.accesses);
  Helpers.check_true "exact flag" r.Sim_result.exact

let test_sim_deterministic () =
  let w, arch, _, brg = setup () in
  let conn = Helpers.naive_conn brg in
  let r1 = Cycle_sim.run ~workload:w ~arch ~conn ()
  and r2 = Cycle_sim.run ~workload:w ~arch ~conn () in
  Helpers.check_int "same cycles" r1.Sim_result.cycles r2.Sim_result.cycles;
  Helpers.check_float "same latency" r1.Sim_result.avg_mem_latency
    r2.Sim_result.avg_mem_latency

let test_dedicated_beats_shared () =
  let w, arch, _, brg = setup ~rich:true () in
  let fast = Cycle_sim.run ~workload:w ~arch ~conn:(Helpers.naive_conn brg) () in
  let slow = Cycle_sim.run ~workload:w ~arch ~conn:(Helpers.shared_conn brg) () in
  Helpers.check_true "dedicated links never slower"
    (fast.Sim_result.avg_mem_latency <= slow.Sim_result.avg_mem_latency +. 0.01)

let test_wider_offchip_bus_faster () =
  let w, arch, _, brg = setup () in
  let with_bus name =
    let pairs =
      List.map
        (fun ch ->
          let cl = Cluster.of_channel ch in
          let comp =
            if cl.Cluster.offchip then Component.by_name name
            else Component.by_name "ded32"
          in
          (cl, comp))
        brg.Brg.channels
    in
    Cycle_sim.run ~workload:w ~arch ~conn:(Conn_arch.make pairs) ()
  in
  let narrow = with_bus "off8" and wide = with_bus "off32" in
  Helpers.check_true "wider off-chip bus reduces latency"
    (wide.Sim_result.avg_mem_latency < narrow.Sim_result.avg_mem_latency)

let test_missing_channel_rejected () =
  let w, arch, _, brg = setup () in
  (* drop the off-chip binding entirely *)
  let onchip_only =
    Conn_arch.make
      (List.filter_map
         (fun ch ->
           if Mx_connect.Channel.crosses_chip ch then None
           else Some (Cluster.of_channel ch, Component.by_name "ded32"))
         brg.Brg.channels)
  in
  Helpers.check_true "unimplemented channel rejected"
    (try
       ignore (Cycle_sim.run ~workload:w ~arch ~conn:onchip_only ());
       false
     with Invalid_argument _ -> true)

let test_sampling_close_to_exact () =
  let w, arch, _, brg = setup () in
  let conn = Helpers.naive_conn brg in
  let exact = Cycle_sim.run ~workload:w ~arch ~conn () in
  let sampled =
    Cycle_sim.run ~sample:(500, 4500) ~workload:w ~arch ~conn ()
  in
  Helpers.check_true "sampled result not exact flag" (not sampled.Sim_result.exact);
  let rel =
    Float.abs
      (sampled.Sim_result.avg_mem_latency -. exact.Sim_result.avg_mem_latency)
    /. exact.Sim_result.avg_mem_latency
  in
  Helpers.check_true "sampling within 25% of exact" (rel < 0.25);
  Helpers.check_float "miss ratio exact under sampling"
    exact.Sim_result.miss_ratio sampled.Sim_result.miss_ratio

let test_sampling_validation () =
  let w, arch, _, brg = setup () in
  Helpers.check_true "bad windows rejected"
    (try
       ignore
         (Cycle_sim.run ~sample:(0, 10) ~workload:w ~arch
            ~conn:(Helpers.naive_conn brg) ());
       false
     with Invalid_argument _ -> true)

(* -- the recorded column -------------------------------------------------- *)

(* Two regions: region 0 (cached) is read throughout, region 1 (the
   scratchpad) only at indices 50..99 — all inside the off-window of
   [(10, 90)] sampling. *)
let off_window_only_workload () =
  let t = Mx_trace.Trace.create () in
  for i = 0 to 999 do
    let region = if i >= 50 && i < 100 then 1 else 0 in
    let addr =
      if region = 1 then 0x8000 + (4 * (i mod 16)) else 4 * (i * 37 mod 2048)
    in
    Mx_trace.Trace.add t ~addr ~size:4 ~kind:Mx_trace.Access.Read ~region
  done;
  let region id name base hint =
    { Mx_trace.Region.id; name; base; size = 8192; elem_size = 4; hint }
  in
  {
    Mx_trace.Workload.name = "off-window";
    regions =
      [ region 0 "data" 0 Mx_trace.Region.Random_access;
        region 1 "table" 0x8000 Mx_trace.Region.Indexed ];
    trace = t;
    cpu_ops = 3000;
  }

let test_channel_check_is_lazy () =
  let w = off_window_only_workload () in
  let arch =
    Mx_mem.Mem_arch.make ~label:"cache+sram" ~cache:Helpers.small_cache
      ~sram:{ Mx_mem.Params.s_size = 256; s_latency = 1 }
      ~bindings:[| Mx_mem.Mem_arch.To_cache; Mx_mem.Mem_arch.To_sram |]
      ()
  in
  let brg = Brg.build arch (Helpers.profile_of arch w) in
  (* every channel but CPU<->SRAM *)
  let conn =
    Conn_arch.make
      (List.filter_map
         (fun ch ->
           if ch.Mx_connect.Channel.dst = Mx_connect.Channel.Sram then None
           else
             Some
               ( Cluster.of_channel ch,
                 Component.by_name
                   (if Mx_connect.Channel.crosses_chip ch then "off32"
                    else "ded32") ))
         brg.Brg.channels)
  in
  let sample = (10, 90) in
  let r = Cycle_sim.run ~sample ~workload:w ~arch ~conn () in
  Alcotest.(check string)
    "sampled run never needs the SRAM channel"
    (Sim_result.to_wire
       (Mx_check.Oracle.replay ~sample ~workload:w ~arch ~conn ()))
    (Sim_result.to_wire r);
  Alcotest.check_raises "the exact run does"
    (Invalid_argument
       "Cycle_sim.run: connectivity does not implement the SRAM channel")
    (fun () -> ignore (Cycle_sim.run ~workload:w ~arch ~conn ()))

let test_column_serves_many_connectivities () =
  let w, arch, _, brg = setup ~rich:true () in
  let column = Cycle_sim.record ~workload:w ~arch () in
  List.iter
    (fun conn ->
      Alcotest.(check string)
        "timing a shared column equals a fresh run"
        (Sim_result.to_wire (Cycle_sim.run ~workload:w ~arch ~conn ()))
        (Sim_result.to_wire (Cycle_sim.time column ~conn)))
    [ Helpers.naive_conn brg; Helpers.shared_conn brg ];
  let accesses = Mx_trace.Trace.length w.Mx_trace.Workload.trace in
  Helpers.check_true "a column holds at most 8 bytes per access"
    (Cycle_sim.footprint column <= 8 * accesses)

(* A deep prefetcher over 4-byte lines, chasing forward jumps of up to
   99 000 lines, fetches a different number of lines almost every
   access: more than 65 536 distinct outcomes, so the recorded ids widen
   from one byte to two and then to four. *)
let test_column_ids_widen () =
  let t = Mx_trace.Trace.create () in
  let g = Mx_util.Prng.create ~seed:5 in
  let pos = ref 0 in
  for _ = 1 to 150_000 do
    pos := !pos + (4 * (1 + Mx_util.Prng.int g ~bound:99_000));
    if !pos >= 1 lsl 24 then pos := 0;
    Mx_trace.Trace.add t ~addr:!pos ~size:4 ~kind:Mx_trace.Access.Read ~region:0
  done;
  let w =
    {
      Mx_trace.Workload.name = "jumps";
      regions =
        [ { Mx_trace.Region.id = 0; name = "r"; base = 0; size = 1 lsl 24;
            elem_size = 4; hint = Mx_trace.Region.Random_access } ];
      trace = t;
      cpu_ops = 150_000;
    }
  in
  let arch =
    Mx_mem.Mem_arch.make ~label:"deep"
      ~sbuf:
        { Mx_mem.Params.sb_streams = 1; sb_line = 4; sb_depth = 100_000;
          sb_latency = 1 }
      ~bindings:[| Mx_mem.Mem_arch.To_sbuf |]
      ()
  in
  let brg = Brg.build arch (Helpers.profile_of arch w) in
  let conn = Helpers.naive_conn brg in
  let column = Cycle_sim.record ~workload:w ~arch () in
  Helpers.check_true "more outcomes than two-byte ids can name"
    (Cycle_sim.distinct_outcomes column > 65_536);
  Alcotest.(check string)
    "wide ids replay exactly"
    (Sim_result.to_wire (Mx_check.Oracle.replay ~workload:w ~arch ~conn ()))
    (Sim_result.to_wire (Cycle_sim.time column ~conn))

(* -- estimator ----------------------------------------------------------- *)

let test_estimator_positive_and_marked () =
  let w, arch, profile, brg = setup () in
  let e =
    Estimator.estimate ~workload:w ~arch ~profile ~conn:(Helpers.naive_conn brg)
  in
  Helpers.check_true "not exact" (not e.Sim_result.exact);
  Helpers.check_true "latency positive" (e.Sim_result.avg_mem_latency > 0.0);
  Helpers.check_true "energy positive" (e.Sim_result.avg_energy_nj > 0.0)

let test_estimator_absolute_accuracy () =
  (* the paper does not require high absolute accuracy, but the estimate
     should land within a factor of two of the simulator *)
  let w, arch, profile, brg = setup () in
  List.iter
    (fun conn ->
      let e = Estimator.estimate ~workload:w ~arch ~profile ~conn in
      let s = Cycle_sim.run ~workload:w ~arch ~conn () in
      let ratio = e.Sim_result.avg_mem_latency /. s.Sim_result.avg_mem_latency in
      Helpers.check_true "within 2x" (ratio > 0.5 && ratio < 2.0))
    [ Helpers.naive_conn brg; Helpers.shared_conn brg ]

let test_estimator_fidelity_ordering () =
  (* fidelity: the estimator must order a clearly-fast design before a
     clearly-slow one (dedicated+wide vs everything-on-one-narrow-bus) *)
  let w, arch, profile, brg = setup ~rich:true () in
  let fast_e =
    Estimator.estimate ~workload:w ~arch ~profile ~conn:(Helpers.naive_conn brg)
  and slow_conn =
    let onchip = Brg.onchip_channels brg and offchip = Brg.offchip_channels brg in
    let merge_all cs =
      List.fold_left
        (fun acc c -> Cluster.merge acc (Cluster.of_channel c))
        (Cluster.of_channel (List.hd cs))
        (List.tl cs)
    in
    Conn_arch.make
      [
        (merge_all onchip, Component.by_name "apb32");
        (merge_all offchip, Component.by_name "off8");
      ]
  in
  let slow_e = Estimator.estimate ~workload:w ~arch ~profile ~conn:slow_conn in
  Helpers.check_true "estimator orders fast < slow"
    (fast_e.Sim_result.avg_mem_latency < slow_e.Sim_result.avg_mem_latency)

let test_estimator_energy_close_to_sim () =
  (* energy is contention-free, so the estimate should track simulation
     tightly *)
  let w, arch, profile, brg = setup () in
  let conn = Helpers.naive_conn brg in
  let e = Estimator.estimate ~workload:w ~arch ~profile ~conn in
  let s = Cycle_sim.run ~workload:w ~arch ~conn () in
  let rel =
    Float.abs (e.Sim_result.avg_energy_nj -. s.Sim_result.avg_energy_nj)
    /. s.Sim_result.avg_energy_nj
  in
  Helpers.check_true "energy estimate within 20%" (rel < 0.20)

let test_estimator_much_faster_than_sim () =
  let w, arch, profile, brg = setup () in
  let conn = Helpers.naive_conn brg in
  let time f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 20 do
      ignore (f ())
    done;
    Unix.gettimeofday () -. t0
  in
  let t_est = time (fun () -> Estimator.estimate ~workload:w ~arch ~profile ~conn)
  and t_sim = time (fun () -> Cycle_sim.run ~workload:w ~arch ~conn ()) in
  Helpers.check_true "estimation at least 5x faster" (t_est *. 5.0 < t_sim)

let suite =
  ( "sim",
    [
      Alcotest.test_case "basic sanity" `Quick test_sim_basic_sanity;
      Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
      Alcotest.test_case "dedicated beats shared" `Quick test_dedicated_beats_shared;
      Alcotest.test_case "wider bus faster" `Quick test_wider_offchip_bus_faster;
      Alcotest.test_case "missing channel" `Quick test_missing_channel_rejected;
      Alcotest.test_case "sampling accuracy" `Quick test_sampling_close_to_exact;
      Alcotest.test_case "sampling validation" `Quick test_sampling_validation;
      Alcotest.test_case "channel check is lazy" `Quick
        test_channel_check_is_lazy;
      Alcotest.test_case "one column, many connectivities" `Quick
        test_column_serves_many_connectivities;
      Alcotest.test_case "column ids widen" `Quick test_column_ids_widen;
      Alcotest.test_case "estimator sanity" `Quick test_estimator_positive_and_marked;
      Alcotest.test_case "estimator accuracy" `Quick test_estimator_absolute_accuracy;
      Alcotest.test_case "estimator fidelity" `Quick test_estimator_fidelity_ordering;
      Alcotest.test_case "estimator energy" `Quick test_estimator_energy_close_to_sim;
      Alcotest.test_case "estimator speed" `Slow test_estimator_much_faster_than_sim;
    ] )
