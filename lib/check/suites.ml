module Prng = Mx_util.Prng
module Stats = Mx_util.Stats
module Pareto = Mx_util.Pareto
module Ev = Mx_util.Event_log
module Channel = Mx_connect.Channel
module Cluster = Mx_connect.Cluster
module Component = Mx_connect.Component
module Assign = Mx_connect.Assign
module Conn_arch = Mx_connect.Conn_arch
module Brg = Mx_connect.Brg
module Params = Mx_mem.Params
module Cache = Mx_mem.Cache
module Mem_arch = Mx_mem.Mem_arch
module Mem_sim = Mx_mem.Mem_sim
module Workload = Mx_trace.Workload
module Trace = Mx_trace.Trace
module Sim_result = Mx_sim.Sim_result
module Serving = Mx_sim.Serving
module Eval = Mx_sim.Eval
module Explore = Conex.Explore
module Design = Conex.Design
module R = Runner

(* -- shared helpers ----------------------------------------------------- *)

let feq ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol *. (1.0 +. Float.abs b)

(* Bit-exact comparison of two simulation results through their wire
   forms, which print every float in hex: [None] when they agree. *)
let wire_diff (a : Sim_result.t) (b : Sim_result.t) =
  let a = Sim_result.to_wire a and b = Sim_result.to_wire b in
  if a = b then None else Some (Printf.sprintf "%s vs %s" a b)

let sorted l = List.sort compare l

(* -- pareto -------------------------------------------------------------- *)

let axes_of_dim dim = List.init dim (fun i (p : float array) -> p.(i))

(* Bit patterns of the points, so the structural comparison also holds
   for NaN (equal to itself) and tells -0.0 from 0.0. *)
let bits pts = List.map (Array.map Int64.bits_of_float) pts

let front_vs_oracle name points =
  R.prop name (fun ~seed ~size ->
      let g = Prng.create ~seed in
      let dim = 2 + Prng.int g ~bound:2 in
      let axes = axes_of_dim dim in
      let pts = points g ~size ~dim in
      let got = Pareto.front ~axes pts
      and want = Oracle.pareto_front ~axes pts in
      R.check
        (bits got = bits want)
        "front differs from quadratic oracle on %d points" (List.length pts))

let pareto_suite =
  [
    front_vs_oracle "front matches quadratic oracle (tied grid points)"
      Gen.grid_points;
    front_vs_oracle "front matches quadratic oracle (continuous points)"
      Gen.continuous_points;
    front_vs_oracle
      "front matches quadratic oracle (NaN, infinities, signed zeros, repeats)"
      Gen.special_points;
    R.prop "front is idempotent" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let axes = axes_of_dim 3 in
        let front = Pareto.front ~axes (Gen.grid_points g ~size ~dim:3) in
        R.check
          (Pareto.front ~axes front = front)
          "front (front pts) <> front pts");
    R.prop "front is permutation-invariant as a set" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let axes = axes_of_dim 3 in
        let pts = Gen.grid_points g ~size ~dim:3 in
        let arr = Array.of_list pts in
        Prng.shuffle g arr;
        R.check
          (sorted (Pareto.front ~axes pts)
          = sorted (Pareto.front ~axes (Array.to_list arr)))
          "shuffling the input changed the front");
    R.prop "front2 agrees with the generic front" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let x (p : float array) = p.(0) and y (p : float array) = p.(1) in
        let pts = Gen.continuous_points g ~size ~dim:2 in
        R.check
          (sorted (Pareto.front2 ~x ~y pts)
          = sorted (Pareto.front ~axes:[ x; y ] pts))
          "two-objective sweep disagrees with the quadratic filter");
  ]

(* -- cluster ------------------------------------------------------------- *)

let canon_levels levels = List.map (List.map Oracle.cluster_canon) levels

let level_invariants ~what chans levels =
  let n = List.length chans in
  let total_bw =
    List.fold_left (fun acc (c : Channel.t) -> acc +. c.Channel.bandwidth) 0.0
      chans
  in
  let finest_ok =
    match levels with
    | [] -> R.failf "%s: no levels" what
    | finest :: _ ->
      R.check
        (List.length finest = n)
        "%s: finest level has %d clusters for %d channels" what
        (List.length finest) n
  in
  let rec steps = function
    | a :: (b :: _ as rest) ->
      if List.length b <> List.length a - 1 then
        R.failf "%s: a merge step went from %d to %d clusters" what
          (List.length a) (List.length b)
      else steps rest
    | _ -> R.Pass
  in
  let per_level level =
    let bw =
      List.fold_left (fun acc (c : Cluster.t) -> acc +. c.Cluster.bandwidth)
        0.0 level
    and nch =
      List.fold_left
        (fun acc (c : Cluster.t) -> acc + List.length c.Cluster.channels)
        0 level
    in
    R.all_of
      [
        R.check (bw = total_bw) "%s: bandwidth not conserved (%g vs %g)" what
          bw total_bw;
        R.check (nch = n) "%s: channels not conserved (%d vs %d)" what nch n;
        R.check
          (List.for_all
             (fun (cl : Cluster.t) ->
               cl.Cluster.bandwidth
               = List.fold_left
                   (fun acc (ch : Channel.t) -> acc +. ch.Channel.bandwidth)
                   0.0 cl.Cluster.channels
               && List.for_all
                    (fun ch -> Channel.crosses_chip ch = cl.Cluster.offchip)
                    cl.Cluster.channels)
             level)
          "%s: a cluster mislabels its bandwidth or boundary class" what;
      ]
  in
  R.all_of (finest_ok :: steps levels :: List.map per_level levels)

let cluster_suite =
  [
    R.prop "levels match the naive bottom-up oracle" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let chans = Gen.channels g ~size in
        R.check
          (canon_levels (Cluster.levels chans)
          = canon_levels (Oracle.cluster_levels chans))
          "clustering hierarchy diverges from the oracle on %d channels"
          (List.length chans));
    R.prop "levels satisfy the conservation laws" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let chans = Gen.channels g ~size in
        let levels = Cluster.levels chans in
        R.all_of
          [
            level_invariants ~what:"levels" chans levels;
            R.check
              (Cluster.merge_step (List.nth levels (List.length levels - 1))
              = None)
              "the coarsest level still has a legal merge";
          ]);
    R.prop "ordered variants satisfy the conservation laws"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let chans = Gen.channels g ~size in
        R.all_of
          (List.map
             (fun (what, order) ->
               level_invariants ~what chans (Cluster.levels_ordered order chans))
             [
               ("highest-first", Cluster.Highest_bandwidth_first);
               ("random-order", Cluster.Random_order seed);
             ]));
    R.prop "merge is additive and rejects class mixing" (fun ~seed ~size:_ ->
        let g = Prng.create ~seed in
        let a = Cluster.of_channel (Gen.channel g)
        and b = Cluster.of_channel (Gen.channel g) in
        if a.Cluster.offchip = b.Cluster.offchip then begin
          let m = Cluster.merge a b in
          R.check
            (m.Cluster.bandwidth = a.Cluster.bandwidth +. b.Cluster.bandwidth
            && List.length m.Cluster.channels
               = List.length a.Cluster.channels
                 + List.length b.Cluster.channels)
            "merge is not additive in bandwidth and channels"
        end
        else
          R.check
            (try
               ignore (Cluster.merge a b);
               false
             with Invalid_argument _ -> true)
            "merging on-chip with off-chip was not rejected");
  ]

(* -- assign -------------------------------------------------------------- *)

let small_onchip =
  lazy
    [
      Component.by_name "ded32"; Component.by_name "mux32";
      Component.by_name "ahb32";
    ]

let small_offchip =
  lazy [ Component.by_name "off32"; Component.by_name "off16" ]

let assign_suite =
  [
    R.prop "enumerate matches the cartesian oracle" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let onchip = Lazy.force small_onchip
        and offchip = Lazy.force small_offchip in
        let cls = Gen.clusters g ~size in
        let describe l = sorted (List.map Conn_arch.describe l) in
        let got = Assign.enumerate ~onchip ~offchip cls
        and want = Oracle.assign_enumerate ~onchip ~offchip cls in
        R.all_of
          [
            R.check
              (List.length got = List.length want)
              "enumerated %d designs, oracle enumerates %d" (List.length got)
              (List.length want);
            R.check (describe got = describe want)
              "enumerated design set differs from the oracle";
          ]);
    R.prop "choices match the direct feasibility filter" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let onchip = Lazy.force small_onchip
        and offchip = Lazy.force small_offchip in
        let cls = Gen.clusters g ~size in
        R.all_of
          (List.map
             (fun cl ->
               R.check
                 (Assign.choices ~onchip ~offchip cl
                 = Oracle.assign_feasible ~onchip ~offchip cl)
                 "choices differ from the oracle filter for %s"
                 (Cluster.describe cl))
             cls));
    R.prop "an infeasible cluster empties the level" (fun ~seed:_ ~size:_ ->
        let ch src dst =
          { Channel.src; dst; bandwidth = 1.0; txn_bytes = 4.0 }
        in
        let wide =
          Cluster.merge
            (Cluster.of_channel (ch Channel.Cpu Channel.Cache))
            (Cluster.of_channel (ch Channel.Cpu Channel.Sram))
        in
        (* ded32 carries a single channel; the merged cluster has two *)
        R.check
          (Assign.enumerate
             ~onchip:[ Component.by_name "ded32" ]
             ~offchip:(Lazy.force small_offchip)
             [ wide ]
          = [])
          "a level with an unassignable cluster was not rejected");
    R.prop "enumerate_levels returns no duplicate designs" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let conns =
          Assign.enumerate_levels ~max_designs_per_level:64
            ~onchip:(Lazy.force small_onchip)
            ~offchip:(Lazy.force small_offchip)
            (Gen.channels g ~size)
        in
        let keys = List.map Conn_arch.describe conns in
        R.check
          (List.length keys = List.length (List.sort_uniq compare keys))
          "duplicate designs survived cross-level deduplication");
  ]

(* -- trace --------------------------------------------------------------- *)

let trace_suite =
  [
    R.prop ~cost:2 "Trace_io round-trip preserves the workload"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        let w2 = Mx_trace.Trace_io.of_string (Mx_trace.Trace_io.to_string w) in
        R.all_of
          [
            R.check
              (Workload.fingerprint w2 = Workload.fingerprint w)
              "round-tripped workload fingerprints differently";
            R.check
              (w2.Workload.name = w.Workload.name
              && w2.Workload.cpu_ops = w.Workload.cpu_ops
              && w2.Workload.regions = w.Workload.regions)
              "round-trip changed the name, cpu_ops or region table";
            R.check
              (Trace.length w2.Workload.trace = Trace.length w.Workload.trace
              && Trace.content_hash w2.Workload.trace
                 = Trace.content_hash w.Workload.trace)
              "round-trip changed the trace content";
          ]);
    R.prop ~cost:2 "Trace_io serialisation is a fixpoint" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        let s = Mx_trace.Trace_io.to_string w in
        R.check
          (Mx_trace.Trace_io.to_string (Mx_trace.Trace_io.of_string s) = s)
          "to_string (of_string s) <> s");
    R.prop ~cost:2 "binary round-trip preserves the workload" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        let chunk_cap = 1 + Prng.int g ~bound:256 in
        let s = Mx_trace.Trace_io.to_binary_string ~chunk_cap w in
        let w2 = Mx_trace.Trace_io.of_binary_string s in
        R.all_of
          [
            R.check
              (Workload.fingerprint w2 = Workload.fingerprint w)
              "binary round-trip changed the workload fingerprint";
            R.check
              (w2.Workload.name = w.Workload.name
              && w2.Workload.cpu_ops = w.Workload.cpu_ops
              && w2.Workload.regions = w.Workload.regions)
              "binary round-trip changed the name, cpu_ops or region table";
            R.check
              (Mx_trace.Trace_io.to_binary_string ~chunk_cap w2 = s)
              "binary serialisation is not a fixpoint at chunk_cap %d"
              chunk_cap;
          ]);
    R.prop ~cost:3
      "fingerprint agrees across in-memory, text and binary paths"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        let fp = Workload.fingerprint w in
        let text = Mx_trace.Trace_io.to_string w in
        let bin =
          Mx_trace.Trace_io.to_binary_string
            ~chunk_cap:(1 + Prng.int g ~bound:128)
            w
        in
        let path = Filename.temp_file "conex_check_fp" ".mxtb" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let oc = open_out_bin path in
            output_string oc bin;
            close_out oc;
            let sw = Mx_trace.Trace_io.open_stream ~path in
            let sfp = Workload.streamed_fingerprint sw in
            Mx_trace.Trace_stream.close sw.Workload.s_stream;
            let mem_stream =
              Workload.streamed ~name:w.Workload.name
                ~regions:w.Workload.regions ~cpu_ops:w.Workload.cpu_ops
                (Mx_trace.Trace_stream.of_trace w.Workload.trace)
            in
            R.all_of
              [
                R.check
                  (Workload.fingerprint (Mx_trace.Trace_io.of_string text)
                  = fp)
                  "text-loaded fingerprint differs";
                R.check
                  (Workload.fingerprint
                     (Mx_trace.Trace_io.of_binary_string bin)
                  = fp)
                  "binary-loaded fingerprint differs";
                R.check (sfp = fp) "file-streamed fingerprint differs";
                R.check
                  (Workload.streamed_fingerprint mem_stream = fp)
                  "in-memory streamed fingerprint differs";
              ]));
    R.prop ~cost:5
      "streamed replay is byte-identical to the in-memory simulator"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let w = p.Gen.p_workload and arch = p.Gen.p_arch in
        let conn = Gen.conn g p.Gen.p_brg in
        let path = Filename.temp_file "conex_check_stream" ".mxtb" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            Mx_trace.Trace_io.save ~format:Mx_trace.Trace_io.Binary
              ~chunk_cap:(1 + Prng.int g ~bound:64)
              w ~path;
            R.all_of
              (List.map
                 (fun (label, sample, cpu) ->
                   let mat =
                     Mx_sim.Cycle_sim.run ?sample ~cpu ~workload:w ~arch ~conn
                       ()
                   in
                   let sw = Mx_trace.Trace_io.open_stream ~path in
                   let str =
                     Mx_sim.Cycle_sim.run_stream ?sample ~cpu ~workload:sw
                       ~arch ~conn ()
                   in
                   Mx_trace.Trace_stream.close sw.Workload.s_stream;
                   match wire_diff mat str with
                   | None -> R.Pass
                   | Some diff ->
                     R.failf "streamed replay diverges under %s (%s)" label
                       diff)
                 [
                   ("Blocking", None, Mx_sim.Cycle_sim.Blocking);
                   ("Overlap", None, Mx_sim.Cycle_sim.Overlap 4);
                   ("Blocking+sample", Some (7, 23), Mx_sim.Cycle_sim.Blocking);
                   ("Overlap+sample", Some (7, 23), Mx_sim.Cycle_sim.Overlap 4);
                 ])));
    R.prop ~cost:2 "truncated binary input is rejected with Parse_error"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        let s = Mx_trace.Trace_io.to_binary_string w in
        let n = String.length s in
        let cut = 1 + Prng.int g ~bound:(n - 1) in
        match Mx_trace.Trace_io.of_binary_string (String.sub s 0 cut) with
        | _ -> R.failf "truncation to %d of %d bytes parsed successfully" cut n
        | exception Mx_trace.Trace_io.Parse_error _ -> R.Pass
        | exception e ->
          R.failf "truncation to %d of %d bytes leaked %s" cut n
            (Printexc.to_string e));
  ]

(* -- stats --------------------------------------------------------------- *)

let stats_suite =
  [
    R.prop "percentile matches the sort-and-index oracle" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let xs = Gen.floats g ~size:(1 + Prng.int g ~bound:(5 * size)) in
        let p = float_of_int (Prng.int g ~bound:101) in
        R.check
          (Stats.percentile xs ~p = Oracle.percentile xs ~p)
          "percentile %.0f differs from the oracle on %d samples" p
          (List.length xs));
    R.prop "percentile is total on degenerate inputs" (fun ~seed ~size:_ ->
        let g = Prng.create ~seed in
        let x = Prng.float g *. 100.0 in
        R.all_of
          [
            R.check (Stats.percentile [] ~p:50.0 = None)
              "empty input did not yield None";
            R.all_of
              (List.map
                 (fun p ->
                   R.check
                     (Stats.percentile [ x ] ~p = Some x)
                     "singleton is not its own %.0fth percentile" p)
                 [ 0.0; 50.0; 100.0 ]);
          ]);
    R.prop "stddev matches the two-pass oracle" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let xs = Gen.floats g ~size:(Prng.int g ~bound:(5 * size)) in
        let got = Stats.stddev xs and want = Oracle.stddev xs in
        R.check
          (feq ~tol:1e-6 got want)
          "stddev %.9g differs from oracle %.9g on %d samples" got want
          (List.length xs));
    R.prop "spearman matches the closed form on distinct values"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let n = size + 2 in
        let permuted () =
          let arr = Array.init n float_of_int in
          Prng.shuffle g arr;
          Array.to_list arr
        in
        let xs = permuted () and ys = permuted () in
        match Stats.spearman xs ys with
        | None -> R.failf "spearman undefined on %d distinct pairs" n
        | Some rho ->
          let want = Oracle.spearman_distinct xs ys in
          R.check
            (feq ~tol:1e-9 rho want)
            "spearman %.12g differs from closed form %.12g" rho want);
    R.prop "spearman is invariant under monotone transforms"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let n = size + 2 in
        let xs = Gen.floats g ~size:n and ys = Gen.floats g ~size:n in
        let xs' = List.map (fun x -> (2.0 *. x) +. 1.0) xs in
        match (Stats.spearman xs ys, Stats.spearman xs' ys) with
        | Some a, Some b ->
          R.check (feq ~tol:1e-12 a b)
            "rank correlation changed under x -> 2x + 1 (%.12g vs %.12g)" a b
        | a, b ->
          R.check ((a = None) = (b = None))
            "definedness changed under a monotone transform");
  ]

(* -- fingerprint --------------------------------------------------------- *)

let fingerprint_suite =
  [
    R.prop "memory fingerprint ignores the label" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        let g2 = Prng.copy g in
        let a = Gen.mem_arch_spec g w ~label:"alpha"
        and b = Gen.mem_arch_spec g2 w ~label:"beta" in
        R.check
          (Mem_arch.fingerprint a = Mem_arch.fingerprint b)
          "relabeling the same structure changed the fingerprint");
    R.prop "memory fingerprint is sensitive to structure" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        let bindings =
          Array.make (List.length w.Workload.regions) Mem_arch.To_cache
        in
        let cache = Gen.cache g in
        let base = Mem_arch.make ~label:"base" ~cache ~bindings () in
        let bigger =
          Mem_arch.make ~label:"base"
            ~cache:{ cache with Params.c_size = cache.Params.c_size * 2 }
            ~bindings ()
        and with_sbuf =
          Mem_arch.make ~label:"base" ~cache
            ~sbuf:(List.hd Mx_mem.Module_lib.stream_buffers)
            ~bindings ()
        in
        R.all_of
          [
            R.check
              (Mem_arch.fingerprint base <> Mem_arch.fingerprint bigger)
              "doubling the cache did not change the fingerprint";
            R.check
              (Mem_arch.fingerprint base <> Mem_arch.fingerprint with_sbuf)
              "adding a stream buffer did not change the fingerprint";
          ]);
    R.prop ~cost:2 "connectivity fingerprint ignores assembly order"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let conn = Gen.conn g p.Gen.p_brg in
        let pairs =
          List.map
            (fun (b : Conn_arch.binding) ->
              (b.Conn_arch.cluster, b.Conn_arch.component))
            conn.Conn_arch.bindings
        in
        let reversed = Conn_arch.make (List.rev pairs) in
        R.check
          (Conn_arch.fingerprint reversed = Conn_arch.fingerprint conn)
          "reversing the binding order changed the fingerprint");
    R.prop ~cost:2 "workload fingerprint is content-addressed"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        let again = Gen.workload (Prng.create ~seed) ~size in
        let renamed = { w with Workload.name = w.Workload.name ^ "x" } in
        R.all_of
          [
            R.check
              (Workload.fingerprint again = Workload.fingerprint w)
              "regenerating from the same seed changed the fingerprint";
            R.check
              (Workload.fingerprint renamed <> Workload.fingerprint w)
              "renaming the workload did not change the fingerprint";
          ]);
  ]

(* -- sim ----------------------------------------------------------------- *)

let wire_mismatch ~what sim orc =
  match wire_diff sim orc with
  | None -> R.Pass
  | Some diff -> R.failf "%s: simulator vs oracle: %s" what diff

let sample_tag = function
  | None -> "exact"
  | Some (on, off) -> Printf.sprintf "sample %d/%d" on off

let cpu_tag = function
  | Mx_sim.Cycle_sim.Blocking -> "blocking"
  | Mx_sim.Cycle_sim.Overlap n -> Printf.sprintf "overlap %d" n

let sim_suite =
  [
    R.prop ~cost:4 "cycle simulator matches the straight-line replay oracle"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.sim_pipeline g ~size in
        let w = p.Gen.p_workload and arch = p.Gen.p_arch in
        let conn = Gen.conn g p.Gen.p_brg in
        let sample = Gen.sample g and cpu = Gen.cpu_model g in
        wire_mismatch
          ~what:
            (Printf.sprintf "%s, %s, %s" (Mem_arch.describe arch)
               (sample_tag sample) (cpu_tag cpu))
          (Mx_sim.Cycle_sim.run ?sample ~cpu ~workload:w ~arch ~conn ())
          (Oracle.replay ?sample ~cpu ~workload:w ~arch ~conn ()));
    R.prop ~cost:6
      "one recorded column times K connectivities like K oracle replays"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.sim_pipeline g ~size in
        let w = p.Gen.p_workload and arch = p.Gen.p_arch in
        let sample = Gen.sample g in
        let column = Mx_sim.Cycle_sim.record ?sample ~workload:w ~arch () in
        R.all_of
          (List.init
             (1 + Prng.int g ~bound:4)
             (fun k ->
               let conn = Gen.conn g p.Gen.p_brg and cpu = Gen.cpu_model g in
               wire_mismatch
                 ~what:
                   (Printf.sprintf "connectivity %d of %s, %s, %s" k
                      (Mem_arch.describe arch) (sample_tag sample)
                      (cpu_tag cpu))
                 (Mx_sim.Cycle_sim.time ~cpu column ~conn)
                 (Oracle.replay ?sample ~cpu ~workload:w ~arch ~conn ()))));
    R.prop ~cost:4 "cycle simulator is deterministic" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let conn = Gen.conn g p.Gen.p_brg in
        let run () =
          Mx_sim.Cycle_sim.run ~workload:p.Gen.p_workload ~arch:p.Gen.p_arch
            ~conn ()
        in
        R.check (run () = run ()) "two identical runs disagree");
    R.prop ~cost:4 "sampled simulation is a fidelity-bounded estimate"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let w = p.Gen.p_workload and arch = p.Gen.p_arch in
        let conn = Gen.conn g p.Gen.p_brg in
        let exact = Mx_sim.Cycle_sim.run ~workload:w ~arch ~conn ()
        and sampled =
          Mx_sim.Cycle_sim.run ~sample:(50, 450) ~workload:w ~arch ~conn ()
        in
        R.all_of
          [
            R.check (exact.Sim_result.exact && not sampled.Sim_result.exact)
              "exactness flags are wrong";
            R.check
              (sampled.Sim_result.accesses = exact.Sim_result.accesses)
              "sampling changed the functional access count";
            R.check
              (sampled.Sim_result.miss_ratio = exact.Sim_result.miss_ratio
              && sampled.Sim_result.dram_bytes = exact.Sim_result.dram_bytes)
              "sampling changed functional outcomes (misses / traffic)";
            (let e = exact.Sim_result.avg_mem_latency
             and s = sampled.Sim_result.avg_mem_latency in
             R.check
               (s >= e /. 10.0 && s <= (e *. 10.0) +. 1.0)
               "sampled latency %.3f is out of band around exact %.3f" s e);
          ]);
  ]

(* -- eval ---------------------------------------------------------------- *)

let with_default_cache f =
  Fun.protect
    ~finally:(fun () -> Eval.set_cache_capacity Eval.default_cache_capacity)
    f

let eval_fidelities = [ Eval.Estimate; Eval.Sampled (100, 900); Eval.Exact ]

let fid_name = Eval.fidelity_tag

let eval_suite =
  [
    R.prop ~cost:5 "eval matches direct recomputation at every fidelity"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let conn = Gen.conn g p.Gen.p_brg in
        let w = p.Gen.p_workload
        and arch = p.Gen.p_arch
        and profile = p.Gen.p_profile in
        R.all_of
          (List.map
             (fun fidelity ->
               Eval.clear_cache ();
               let via_cache =
                 Eval.eval ~fidelity ~workload:w ~arch ~profile ~conn ()
               and direct =
                 Oracle.eval_direct ~fidelity ~workload:w ~arch ~profile ~conn
                   ()
               in
               R.check (via_cache = direct)
                 "cached eval differs from direct recomputation at %s"
                 (fid_name fidelity))
             eval_fidelities));
    R.prop ~cost:6 "recorded columns are shared per fidelity, never across"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.sim_pipeline g ~size in
        let w = p.Gen.p_workload and arch = p.Gen.p_arch in
        let conns =
          List.init (2 + Prng.int g ~bound:3) (fun _ -> Gen.conn g p.Gen.p_brg)
        in
        let sampled () =
          let on, off = Gen.window g in
          Eval.Sampled (on, off)
        in
        (* Exact last: a Sampled request after an Exact one for the same
           design would be promoted instead of simulated *)
        let fidelities = [ sampled (); sampled (); Eval.Exact ] in
        Eval.clear_cache ();
        R.all_of
          (List.concat_map
             (fun fidelity ->
               List.map
                 (fun conn ->
                   let via_column =
                     Eval.eval ~fidelity ~workload:w ~arch ~conn ()
                   and direct =
                     Oracle.eval_direct ~fidelity ~workload:w ~arch ~conn ()
                   in
                   R.check
                     (Sim_result.to_wire via_column = Sim_result.to_wire direct)
                     "a shared column gives %s at %s, direct simulation %s"
                     (Sim_result.to_wire via_column) (fid_name fidelity)
                     (Sim_result.to_wire direct))
                 conns)
             fidelities));
    R.prop ~cost:5 "disabling the cache does not change results"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let conn = Gen.conn g p.Gen.p_brg in
        let w = p.Gen.p_workload and arch = p.Gen.p_arch in
        with_default_cache (fun () ->
            Eval.set_cache_capacity 0;
            let off =
              Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn ()
            in
            Eval.set_cache_capacity Eval.default_cache_capacity;
            let on1 =
              Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn ()
            and on2 =
              Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn ()
            in
            R.check (off = on1 && on1 = on2)
              "cache-on and cache-off evaluations disagree"));
    R.prop ~cost:5 "an Exact result is promoted to serve Sampled requests"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let conn = Gen.conn g p.Gen.p_brg in
        let w = p.Gen.p_workload and arch = p.Gen.p_arch in
        Eval.clear_cache ();
        let exact = Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn () in
        let r, prov =
          Eval.eval_prov ~fidelity:(Eval.Sampled (100, 900)) ~workload:w ~arch
            ~conn ()
        in
        R.all_of
          [
            R.check (prov = Eval.Promoted)
              "Sampled after Exact was %s, not promoted"
              (Eval.provenance_tag prov);
            R.check (r = exact) "the promoted result differs from the Exact one";
          ]);
    R.prop ~cost:5 "a repeated evaluation is a cache hit with equal result"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let conn = Gen.conn g p.Gen.p_brg in
        let w = p.Gen.p_workload and arch = p.Gen.p_arch in
        Eval.clear_cache ();
        let r1, p1 =
          Eval.eval_prov ~fidelity:Eval.Exact ~workload:w ~arch ~conn ()
        in
        let r2, p2 =
          Eval.eval_prov ~fidelity:Eval.Exact ~workload:w ~arch ~conn ()
        in
        R.all_of
          [
            R.check (p1 = Eval.Computed) "first evaluation was not computed";
            R.check (p2 = Eval.Cache_hit) "second evaluation missed the cache";
            R.check (r1 = r2) "hit returned a different result";
          ]);
  ]

(* -- estimate -------------------------------------------------------------- *)

let estimate_outcome f =
  match f () with
  | r -> Ok (Sim_result.to_wire r)
  | exception Invalid_argument msg -> Error msg

let show_outcome = function Ok wire -> wire | Error msg -> "raises " ^ msg

(* [conn] without its [k]-th binding: a channel the estimate may need
   goes unrouted *)
let drop_binding (conn : Conn_arch.t) k =
  conn.Conn_arch.bindings
  |> List.filteri (fun j _ -> j <> k)
  |> List.map (fun (b : Conn_arch.binding) ->
         (b.Conn_arch.cluster, b.Conn_arch.component))
  |> Conn_arch.make

let plan_matches_oracle pipeline ~seed ~size =
  let g = Prng.create ~seed in
  let p = pipeline g ~size in
  let w = p.Gen.p_workload
  and arch = p.Gen.p_arch
  and profile = p.Gen.p_profile in
  let plan = Mx_sim.Estimator.prepare ~workload:w ~arch ~profile in
  let conns =
    List.init (1 + Prng.int g ~bound:4) (fun _ -> Gen.conn g p.Gen.p_brg)
  in
  let dropped =
    let c = List.hd conns in
    drop_binding c (Prng.int g ~bound:(List.length c.Conn_arch.bindings))
  in
  R.all_of
    (List.mapi
       (fun k conn ->
         let got =
           estimate_outcome (fun () -> Mx_sim.Estimator.run plan ~conn)
         and want =
           estimate_outcome (fun () ->
               Oracle.estimate ~workload:w ~arch ~profile ~conn)
         in
         R.check (got = want) "connectivity %d of %s: plan gives %s, oracle %s"
           k (Mem_arch.describe arch) (show_outcome got) (show_outcome want))
       (conns @ [ dropped ]))

let estimate_suite =
  [
    R.prop ~cost:2
      "simulator architectures: one plan estimates K connectivities like \
       K oracle estimates"
      (plan_matches_oracle Gen.sim_pipeline);
    R.prop ~cost:2
      "APEX architectures: one plan estimates K connectivities like K \
       oracle estimates"
      (plan_matches_oracle Gen.pipeline);
  ]

(* -- pipeline ------------------------------------------------------------ *)

(* An APEX catalogue with every module kind and two victim, L2,
   write-buffer and LLDMA options: a group key that drops one of those
   parameters merges candidates whose profiles differ.  Every L1 and L2
   draws its replacement policy per case, as [explore --policies]
   crosses them all.  The 8-way L1 widens the geometries; a 3-way one
   cannot exist, since [Params.validate_cache] makes size and line, and
   so ways and sets, powers of two. *)
let group_catalogue g =
  let cache c_size c_line c_assoc c_latency =
    { Params.c_size; c_line; c_assoc; c_latency; c_policy = Gen.repl_policy g }
  in
  let caches = [ cache 512 16 1 1; cache 1024 16 8 1; cache 2048 32 2 1 ] in
  let l2s = [ cache 4096 32 2 4; cache 8192 64 4 4 ] in
  {
    Mx_apex.Explore.reduced_config with
    caches;
    include_no_cache = true;
    lldmas = Mx_mem.Module_lib.lldmas;
    l2s;
    victims =
      [ { Params.v_entries = 2; v_latency = 1 };
        { Params.v_entries = 8; v_latency = 1 } ];
    write_buffers =
      [ { Params.wb_entries = 2; wb_drain = 3 };
        { Params.wb_entries = 4; wb_drain = 4 } ];
    sram_budget = 4096;
  }

let profile_mismatch a b =
  List.find_map
    (fun ((field, x), (_, y)) ->
      if x <> y then Some (Printf.sprintf "%s: %d vs %d" field x y) else None)
    (List.combine (Oracle.profile_canon a) (Oracle.profile_canon b))

let pipeline_suite =
  [
    R.prop ~cost:4 "composed group profiles equal whole-architecture runs"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        let archs =
          Mx_apex.Explore.candidates (group_catalogue g)
            (Mx_trace.Profile.analyze w)
        in
        let regions = w.Workload.regions and trace = w.Workload.trace in
        let got = Mem_sim.run_all archs ~regions trace
        and want = Oracle.profiles ~regions archs trace in
        if List.length got <> List.length want then
          R.failf "%d composed profiles for %d architectures"
            (List.length got) (List.length want)
        else
          match
            List.find_map
              (fun ((a : Mem_arch.t), (c, r)) ->
                Option.map
                  (fun diff -> (a.Mem_arch.label, diff))
                  (profile_mismatch c r))
              (List.combine archs (List.combine got want))
          with
          | None -> R.Pass
          | Some (label, diff) ->
            R.failf "%s: composed profile differs from Mem_sim.run (%s)"
              label diff);
    R.prop ~cost:3 "per-serving profile partitions the trace"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let s = p.Gen.p_profile in
        let total =
          List.fold_left
            (fun acc sv -> acc + s.Mem_sim.cpu_accesses sv)
            0 Serving.all
        in
        R.all_of
          [
            R.check
              (total = s.Mem_sim.accesses)
              "serving classes sum to %d but the trace has %d accesses" total
              s.Mem_sim.accesses;
            R.check
              (s.Mem_sim.demand_misses <= s.Mem_sim.accesses)
              "more demand misses (%d) than accesses (%d)"
              s.Mem_sim.demand_misses s.Mem_sim.accesses;
          ]);
    R.prop ~cost:3 "cycle simulation is finite and positive"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let conn = Gen.conn g p.Gen.p_brg in
        let r =
          Mx_sim.Cycle_sim.run ~workload:p.Gen.p_workload ~arch:p.Gen.p_arch
            ~conn ()
        in
        R.check
          (Float.is_finite r.Sim_result.avg_mem_latency
          && r.Sim_result.avg_mem_latency > 0.0
          && Float.is_finite r.Sim_result.avg_energy_nj
          && r.Sim_result.avg_energy_nj >= 0.0
          && r.Sim_result.cycles >= r.Sim_result.accesses)
          "cycle simulation produced non-finite or non-positive metrics");
    R.prop ~cost:3 "estimator is finite on any pipeline" (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let conn = Gen.conn g p.Gen.p_brg in
        let e =
          Mx_sim.Estimator.estimate ~workload:p.Gen.p_workload
            ~arch:p.Gen.p_arch ~profile:p.Gen.p_profile ~conn
        in
        R.check
          (Float.is_finite e.Sim_result.avg_mem_latency
          && e.Sim_result.avg_mem_latency > 0.0
          && Float.is_finite e.Sim_result.avg_energy_nj)
          "estimator produced non-finite or non-positive metrics");
    R.prop ~cost:3 "every enumerated assignment is internally feasible"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let conns =
          Assign.enumerate_levels ~max_designs_per_level:64
            ~onchip:Component.onchip_library
            ~offchip:Component.offchip_library
            p.Gen.p_brg.Brg.channels
        in
        R.all_of
          [
            R.check (conns <> []) "full library enumerated no designs";
            R.check
              (List.for_all
                 (fun (c : Conn_arch.t) ->
                   List.for_all
                     (fun (b : Conn_arch.binding) ->
                       Conn_arch.feasible b.Conn_arch.cluster
                         b.Conn_arch.component)
                     c.Conn_arch.bindings)
                 conns)
              "an enumerated design carries an infeasible binding";
          ]);
  ]

(* -- explore ------------------------------------------------------------- *)

let small_config ~jobs =
  {
    Explore.reduced_config with
    apex = { Mx_apex.Explore.reduced_config with max_selected = 2 };
    max_designs_per_level = 64;
    phase1_keep = 6;
    refine_top = 0;
    jobs;
  }

let design_keys (ds : Design.t list) =
  List.map
    (fun d -> (Design.structural_key d, Design.cost d, Design.latency d,
               Design.energy d))
    ds

let run_summary (r : Explore.result) =
  ( r.Explore.n_estimates,
    r.Explore.n_simulations,
    design_keys r.Explore.simulated,
    design_keys r.Explore.pareto_cost_perf )

let kernel_rank_floor (name, generate, floor) =
  R.prop ~cost:1_000_000 ~max_size:1
    (Printf.sprintf "estimate ranks track exact simulation (%s)" name)
    (fun ~seed:_ ~size:_ ->
      let w = generate ~scale:4000 ~seed:7 in
      let cache =
        { Params.c_size = 1024; c_line = 16; c_assoc = 2; c_latency = 1;
          c_policy = Params.default_policy }
      in
      let bindings =
        Array.make (List.length w.Workload.regions) Mem_arch.To_cache
      in
      let arch = Mem_arch.make ~label:(name ^ "-cache") ~cache ~bindings () in
      let msim = Mem_sim.create arch ~regions:w.Workload.regions in
      let profile = Mem_sim.run msim w.Workload.trace in
      let brg = Brg.build arch profile in
      let conns =
        Assign.enumerate_levels ~max_designs_per_level:16
          ~onchip:
            [
              Component.by_name "ded32"; Component.by_name "mux32";
              Component.by_name "apb32"; Component.by_name "ahb32";
            ]
          ~offchip:(Lazy.force small_offchip) brg.Brg.channels
      in
      let ests =
        List.map
          (fun conn ->
            (Mx_sim.Estimator.estimate ~workload:w ~arch ~profile ~conn)
              .Sim_result.avg_mem_latency)
          conns
      and exacts =
        List.map
          (fun conn ->
            (Mx_sim.Cycle_sim.run ~workload:w ~arch ~conn ())
              .Sim_result.avg_mem_latency)
          conns
      in
      match Stats.spearman ests exacts with
      | None ->
        R.failf "rank correlation undefined over %d connectivities"
          (List.length conns)
      | Some rho ->
        R.check (rho >= floor)
          "spearman %.3f below the pinned floor %.2f over %d connectivities"
          rho floor (List.length conns))

let explore_suite ~jobs =
  [
    R.prop ~cost:60 ~max_size:2 "cache-on and cache-off explorations agree"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        let config = small_config ~jobs:1 in
        with_default_cache (fun () ->
            Eval.set_cache_capacity Eval.default_cache_capacity;
            let on = Explore.run ~config w in
            Eval.set_cache_capacity 0;
            let off = Explore.run ~config w in
            R.check
              (run_summary on = run_summary off)
              "caching changed the exploration outcome"));
    R.prop ~cost:60 ~max_size:2 "jobs=1 and jobs=N explorations agree"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        with_default_cache (fun () ->
            (* disable the cache so the parallel arm cannot be served
               results computed by the serial one *)
            Eval.set_cache_capacity 0;
            let serial = Explore.run ~config:(small_config ~jobs:1) w in
            let parallel =
              Explore.run ~config:(small_config ~jobs:(max 2 jobs)) w
            in
            R.check
              (run_summary serial = run_summary parallel)
              "jobs=1 and jobs=%d disagree" (max 2 jobs)));
    kernel_rank_floor
      ("compress", Mx_trace.Kern_compress.generate, 0.8);
    kernel_rank_floor ("fft", Mx_trace.Kern_fft.generate, 0.9);
    R.prop ~cost:60 ~max_size:2
      "every phase-1 design gets exactly one terminal verdict"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        let was = Ev.is_on Ev.global in
        Ev.reset Ev.global;
        Ev.set_enabled Ev.global true;
        Fun.protect
          ~finally:(fun () ->
            Ev.set_enabled Ev.global was;
            Ev.reset Ev.global)
          (fun () ->
            ignore (Explore.run ~config:(small_config ~jobs:1) w);
            let evs = Ev.events Ev.global in
            let count name =
              List.length
                (List.filter
                   (fun (e : Ev.event) ->
                     e.Ev.stage = "phase1" && e.Ev.name = name)
                   evs)
            in
            let created = count "design.created"
            and kept = count "design.kept"
            and thinned = count "design.thinned"
            and pruned = count "design.pruned" in
            R.all_of
              [
                R.check (created > 0) "no phase-1 designs were created";
                R.check
                  (created = kept + thinned + pruned)
                  "%d designs created but %d verdicts (%d kept, %d thinned, \
                   %d pruned)"
                  created
                  (kept + thinned + pruned)
                  kept thinned pruned;
              ]));
  ]

(* -- shard ---------------------------------------------------------------- *)

(* The sharded work-queue must be invisible in the results: same
   designs, same order, same front, whatever the shard count or jobs
   level — and the anytime archive must agree with the collect-then-
   filter front it replaced. *)

module Shard = Conex.Shard

let shard_config ~shards ~jobs = { (small_config ~jobs) with Explore.shards }

let shard_onchip =
  lazy
    [ Component.by_name "ded32"; Component.by_name "mux32";
      Component.by_name "apb32"; Component.by_name "ahb32" ]

let shard_offchip = lazy [ Component.by_name "off32" ]

(* One planned shard queue (plus the context needed to resolve it)
   for a generated pipeline. *)
let shard_plan_of_pipeline g (p : Gen.pipeline) =
  let levels =
    Mx_connect.Cluster.levels_ordered Mx_connect.Cluster.Lowest_bandwidth_first
      p.Gen.p_brg.Brg.channels
  in
  let cap = 1 + Prng.int g ~bound:48 in
  let k = 1 + Prng.int g ~bound:8 in
  let onchip = Lazy.force shard_onchip and offchip = Lazy.force shard_offchip in
  let workload_fp = Mx_trace.Workload.fingerprint p.Gen.p_workload in
  let arch_fp = Mem_arch.fingerprint p.Gen.p_arch in
  let arch_label = p.Gen.p_arch.Mem_arch.label in
  let shards =
    Shard.plan ~shards:k ~max_designs_per_level:cap ~workload_fp ~arch_label
      ~arch_fp ~onchip ~offchip levels
  in
  (shards, `Ctx (workload_fp, arch_label, arch_fp, onchip, offchip, levels, cap))

let dedup_by_describe conns =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun c ->
      let key = Conn_arch.describe c in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    conns

let shard_suite ~jobs =
  let x (p : float array) = p.(0) and y (p : float array) = p.(1) in
  let axes2 = [ x; y ] in
  [
    R.prop ~cost:80 ~max_size:2
      "sharded and monolithic explorations agree (shards x jobs)"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        with_default_cache (fun () ->
            (* cache off so no arm is served results computed by another *)
            Eval.set_cache_capacity 0;
            let base =
              Explore.run ~config:(shard_config ~shards:1 ~jobs:1) w
            in
            R.all_of
              (List.map
                 (fun (shards, jobs) ->
                   let r = Explore.run ~config:(shard_config ~shards ~jobs) w in
                   R.check
                     (run_summary r = run_summary base)
                     "shards=%d jobs=%d diverges from the monolithic run"
                     shards jobs)
                 [ (4, 1); (1, max 2 jobs); (4, max 2 jobs) ])));
    R.prop ~cost:10 "shard plan concatenation = monolithic enumeration"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let shards, `Ctx (_, _, _, onchip, offchip, _, cap) =
          shard_plan_of_pipeline g p
        in
        let mono =
          Assign.enumerate_levels ~max_designs_per_level:cap ~onchip ~offchip
            p.Gen.p_brg.Brg.channels
        in
        let merged =
          dedup_by_describe (List.concat_map Shard.enumerate shards)
        in
        R.check
          (List.map Conn_arch.describe merged
          = List.map Conn_arch.describe mono)
          "merged shard slices (%d shards, cap %d) differ from the \
           monolithic stream (%d vs %d designs)"
          (List.length shards) cap (List.length merged) (List.length mono));
    R.prop ~cost:10 "shard descriptors survive the wire format and resolve"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let shards, `Ctx (workload_fp, arch_label, arch_fp, onchip, offchip,
                          levels, _) =
          shard_plan_of_pipeline g p
        in
        R.all_of
          (List.map
             (fun r ->
               let d = Shard.descriptor r in
               match Shard.of_line (Shard.to_line d) with
               | Error e -> R.failf "of_line rejected a planned shard: %s" e
               | Ok d' ->
                 if d' <> d then
                   R.failf "wire round-trip changed %s into %s"
                     (Shard.fingerprint d) (Shard.fingerprint d')
                 else (
                   match
                     Shard.resolve ~workload_fp ~arch_label ~arch_fp ~onchip
                       ~offchip ~levels d'
                   with
                   | Error e -> R.failf "resolve failed: %s" e
                   | Ok r' ->
                     R.check
                       (List.map Conn_arch.describe (Shard.enumerate r')
                       = List.map Conn_arch.describe (Shard.enumerate r))
                       "a resolved shard enumerates a different slice (%s)"
                       (Shard.fingerprint d)))
             shards));
    R.prop "exact unbounded archive front = front2"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let pts = Gen.grid_points g ~size ~dim:2 in
        let a = Pareto.Archive.of_list ~axes:axes2 pts in
        R.check
          (Pareto.Archive.front a = Pareto.front2 ~x ~y pts)
          "incremental archive and collect-then-filter front disagree on %d \
           points"
          (List.length pts));
    R.prop "every exact-front point is eps-covered by the eps-archive"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let pts = Gen.continuous_points g ~size ~dim:2 in
        let eps = 0.05 +. (0.2 *. Prng.float g) in
        let members = Pareto.Archive.front (Pareto.Archive.of_list ~axes:axes2 ~eps pts) in
        let covered p =
          List.exists
            (fun m ->
              List.for_all (fun f -> f m <= (1.0 +. eps) *. f p) axes2)
            members
        in
        match List.find_opt (fun p -> not (covered p)) (Pareto.front2 ~x ~y pts) with
        | None -> R.check true "covered"
        | Some p ->
          R.failf "front point (%.4f, %.4f) not within (1+%.3f) of any of %d \
                   archive members"
            (x p) (y p) eps (List.length members));
    R.prop "capacity-bounded archive keeps the axis extremes"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let pts = Gen.continuous_points g ~size ~dim:2 in
        let capacity = 2 + Prng.int g ~bound:6 in
        let a = Pareto.Archive.of_list ~axes:axes2 ~capacity pts in
        let members = Pareto.Archive.front a in
        let minimum f = List.fold_left (fun acc p -> Float.min acc (f p)) infinity pts in
        let mutually_nondominated =
          List.for_all
            (fun m ->
              not
                (List.exists
                   (fun m' -> m' != m && Pareto.dominates ~axes:axes2 m' m)
                   members))
            members
        in
        R.all_of
          [
            R.check (List.length members <= capacity)
              "archive holds %d members over its capacity %d"
              (List.length members) capacity;
            R.check
              (List.exists (fun m -> x m = minimum x) members
              && List.exists (fun m -> y m = minimum y) members)
              "capacity thinning evicted an axis extreme";
            R.check mutually_nondominated "archive members dominate each other";
          ]);
    R.prop ~cost:80 ~max_size:2
      "an interrupted run returns a valid committed prefix"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        with_default_cache (fun () ->
            Eval.set_cache_capacity 0;
            let config = shard_config ~shards:2 ~jobs:1 in
            let full = Explore.run ~config w in
            let budget =
              Prng.int g
                ~bound:(2 * (full.Explore.n_estimates + full.Explore.n_simulations) + 2)
            in
            let polls = ref 0 in
            let interrupt () =
              incr polls;
              !polls > budget
            in
            let r = Explore.run ~config ~interrupt w in
            let keys = design_keys r.Explore.simulated in
            let full_keys = design_keys full.Explore.simulated in
            let is_prefix =
              List.length keys <= List.length full_keys
              && keys
                 = List.filteri (fun i _ -> i < List.length keys) full_keys
            in
            R.all_of
              [
                R.check
                  (r.Explore.interrupted || run_summary r = run_summary full)
                  "an uninterrupted run (budget %d) diverges from the plain \
                   run"
                  budget;
                R.check is_prefix
                  "the interrupted run's %d simulations are not a prefix of \
                   the full run's %d"
                  (List.length keys) (List.length full_keys);
                R.check
                  (design_keys r.Explore.pareto_cost_perf
                  = design_keys
                      (Pareto.front2 ~x:Design.cost ~y:Design.latency
                         r.Explore.simulated))
                  "the anytime front is not the pareto front of the committed \
                   prefix";
              ]));
  ]

(* -- replacement --------------------------------------------------------- *)

(* Replay an (addr, write) stream through the production cache and
   project each access onto the oracle's event type. *)
let repl_events_of_cache geometry stream =
  let c = Cache.create geometry in
  List.map
    (fun (addr, write) ->
      let r = Cache.access c ~addr ~write in
      {
        Oracle.o_hit = r.Cache.hit;
        o_writeback = r.Cache.writeback;
        o_evicted_line = r.Cache.evicted_line;
      })
    stream

let repl_event_str (e : Oracle.repl_event) =
  Printf.sprintf "{hit=%b;wb=%b;evict=%s}" e.Oracle.o_hit e.Oracle.o_writeback
    (match e.Oracle.o_evicted_line with
    | None -> "-"
    | Some l -> string_of_int l)

(* Full-sequence differential comparison; the failure message names the
   first diverging access. *)
let repl_compare ~(cache_geo : Params.cache) ~(oracle_geo : Params.cache)
    stream =
  let got = repl_events_of_cache cache_geo stream
  and want = Oracle.repl_cache oracle_geo stream in
  let rec first i ga wa =
    match (ga, wa) with
    | [], [] -> R.check true "agree"
    | a :: ga', b :: wa' ->
      if a = b then first (i + 1) ga' wa'
      else
        R.failf "access %d of %d: cache %s <> oracle %s (%s, %d sets x %d ways)"
          i (List.length stream) (repl_event_str a) (repl_event_str b)
          (Params.policy_to_string oracle_geo.Params.c_policy)
          (oracle_geo.Params.c_size / oracle_geo.Params.c_line
          / oracle_geo.Params.c_assoc)
          oracle_geo.Params.c_assoc
    | _, _ -> R.failf "event-sequence length mismatch"
  in
  first 0 got want

let repl_policy_vs_oracle policy =
  R.prop
    (Printf.sprintf "%s matches its reference oracle"
       (Params.policy_to_string policy))
    (fun ~seed ~size ->
      let g = Prng.create ~seed in
      let geometry =
        { (Gen.repl_geometry g ~size) with Params.c_policy = policy }
      in
      let stream = Gen.repl_stream g ~size ~geometry in
      repl_compare ~cache_geo:geometry ~oracle_geo:geometry stream)

let first_touch_flags lines =
  let seen = Hashtbl.create 64 in
  List.map
    (fun l ->
      if Hashtbl.mem seen l then false
      else begin
        Hashtbl.add seen l ();
        true
      end)
    lines

let replacement_suite =
  List.map repl_policy_vs_oracle Params.all_policies
  @ [
      R.prop "random policy/geometry pairs match the oracle"
        (fun ~seed ~size ->
          (* the cross-product sweep: a fresh policy draw per case, so
             long fuzz runs cover policy/geometry pairs the per-policy
             props reach more slowly *)
          let g = Prng.create ~seed in
          let geometry =
            { (Gen.repl_geometry g ~size) with
              Params.c_policy = Gen.repl_policy g }
          in
          let stream = Gen.repl_stream g ~size ~geometry in
          repl_compare ~cache_geo:geometry ~oracle_geo:geometry stream);
      R.prop "fully-associative true-lru matches the stack-distance oracle"
        (fun ~seed ~size ->
          let g = Prng.create ~seed in
          let ways = 1 lsl Prng.int g ~bound:(min 4 (1 + size)) in
          let line = 16 in
          let geometry =
            { Params.c_size = ways * line; c_line = line; c_assoc = ways;
              c_latency = 1; c_policy = Params.True_lru }
          in
          let stream = Gen.repl_stream g ~size ~geometry in
          let cache_hits =
            List.map
              (fun e -> e.Oracle.o_hit)
              (repl_events_of_cache geometry stream)
          and stack =
            Oracle.stack_hits ~capacity:ways
              (List.map (fun (addr, _) -> addr / line) stream)
          in
          R.check (cache_hits = stack)
            "single-set %d-way true-lru diverges from the stack algorithm \
             on %d accesses"
            ways (List.length stream));
      R.prop "all policies agree on compulsory misses" (fun ~seed ~size ->
          let g = Prng.create ~seed in
          let geometry = Gen.repl_geometry g ~size in
          let stream = Gen.repl_stream g ~size ~geometry in
          let compulsory =
            first_touch_flags
              (List.map (fun (a, _) -> a / geometry.Params.c_line) stream)
          in
          R.all_of
            (List.map
               (fun policy ->
                 let evs =
                   repl_events_of_cache
                     { geometry with Params.c_policy = policy }
                     stream
                 in
                 R.check
                   (List.for_all2
                      (fun first e -> (not first) || not e.Oracle.o_hit)
                      compulsory evs)
                   "%s hits a first-touch line"
                   (Params.policy_to_string policy))
               Params.all_policies));
      R.prop "true-lru misses are monotone in associativity" (fun ~seed ~size ->
          (* LRU inclusion: doubling the ways at a fixed set count (so
             the line-to-set mapping is unchanged) can only remove
             misses *)
          let g = Prng.create ~seed in
          let ways = 1 lsl Prng.int g ~bound:3 in
          let sets = 1 lsl Prng.int g ~bound:3 in
          let line = 16 in
          let mk ways =
            { Params.c_size = sets * ways * line; c_line = line;
              c_assoc = ways; c_latency = 1; c_policy = Params.True_lru }
          in
          let stream = Gen.repl_stream g ~size ~geometry:(mk ways) in
          let misses geo =
            List.length
              (List.filter
                 (fun e -> not e.Oracle.o_hit)
                 (repl_events_of_cache geo stream))
          in
          let small = misses (mk ways) and big = misses (mk (2 * ways)) in
          R.check (big <= small)
            "%d->%d ways at %d sets raised misses %d -> %d" ways (2 * ways)
            sets small big);
    ]

(* Deliberately-broken policy for the failure-path contract: the
   production true-lru cache is compared against a promotion-blind
   (FIFO) oracle, so any stream where a hit promotion changes a later
   eviction is a counterexample.  Hidden like [selftest]: reachable by
   name, excluded from {!all}. *)
let replacement_selftest_suite =
  [
    R.prop "true-lru matches a (deliberately wrong) promotion-blind oracle"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let geometry =
          { (Gen.repl_geometry g ~size) with Params.c_policy = Params.True_lru }
        in
        let stream = Gen.repl_stream g ~size ~geometry in
        repl_compare ~cache_geo:geometry
          ~oracle_geo:{ geometry with Params.c_policy = Params.Fifo }
          stream);
  ]

(* -- persist ------------------------------------------------------------- *)

module Persist = Mx_util.Persist_cache

(* A unique scratch directory per case; the store creates it, the
   finally block removes it (and detaches any store the property left
   attached to Eval, so one case can never leak disk state into the
   next). *)
let with_store f =
  let dir = Filename.temp_file "conex-check-persist" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      Eval.close_persist ();
      if Sys.file_exists dir && Sys.is_directory dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let persist_revision = "check-r1"

(* On-disk segment geometry, mirrored from the documented format
   (DESIGN.md): the differential properties below aim their faults at
   exact byte offsets, so they must know where records live. *)
let persist_header_len rev = 6 + String.length rev + 1
let persist_record_len k v = 9 + String.length k + String.length v + 16

let persist_kvs g ~n =
  List.init n (fun i ->
      ( Printf.sprintf "key-%d" i,
        Printf.sprintf "value-%d-%d" i (Prng.int g ~bound:1_000_000) ))

let persist_fill ~dir kvs =
  match Persist.open_dir ~revision:persist_revision ~dir () with
  | Error e -> Error e
  | Ok t ->
    List.iter (fun (k, v) -> Persist.put t ~key:k v) kvs;
    let seg = List.nth (Persist.Testing.segment_files t) 0 in
    Persist.close t;
    Ok seg

let persist_suite ~jobs:_ =
  [
    R.prop ~cost:60 ~max_size:2
      "a warm-start exploration equals the cold run and is served from disk"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let w = Gen.workload g ~size in
        let config = small_config ~jobs:1 in
        with_store (fun dir ->
            with_default_cache (fun () ->
                match Eval.open_persist ~dir with
                | Error e -> R.failf "cannot open the store: %s" e
                | Ok () -> (
                  let cold = Explore.run ~config w in
                  (* a fresh process: empty hot tier, reopened store *)
                  match Eval.open_persist ~dir with
                  | Error e -> R.failf "cannot reopen the store: %s" e
                  | Ok () ->
                    Eval.set_cache_capacity Eval.default_cache_capacity;
                    let warm = Explore.run ~config w in
                    let stats = Eval.persist_stats () in
                    Eval.close_persist ();
                    R.all_of
                      [
                        R.check
                          (run_summary cold = run_summary warm)
                          "the warm-start run changed the exploration outcome";
                        (match stats with
                        | None -> R.failf "the disk tier detached itself"
                        | Some s ->
                          R.check
                            (s.Persist.get_hits > 0)
                            "the warm run never read the disk tier");
                      ]))));
    R.prop ~cost:5 "an Exact result on disk is promoted to serve Sampled"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let p = Gen.pipeline g ~size in
        let conn = Gen.conn g p.Gen.p_brg in
        let w = p.Gen.p_workload and arch = p.Gen.p_arch in
        with_store (fun dir ->
            with_default_cache (fun () ->
                match Eval.open_persist ~dir with
                | Error e -> R.failf "cannot open the store: %s" e
                | Ok () ->
                  Eval.clear_cache ();
                  let exact =
                    Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn ()
                  in
                  (* drop the hot tier; only the disk copy remains *)
                  Eval.clear_cache ();
                  let r, prov =
                    Eval.eval_prov ~fidelity:(Eval.Sampled (100, 900))
                      ~workload:w ~arch ~conn ()
                  in
                  Eval.close_persist ();
                  R.all_of
                    [
                      R.check (prov = Eval.Promoted)
                        "Sampled after a disk-resident Exact was %s"
                        (Eval.provenance_tag prov);
                      R.check (r = exact)
                        "the promoted result differs from the Exact one";
                    ])));
    R.prop "a store written under another revision reads as empty"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let n = 1 + Prng.int g ~bound:(1 + (size * 3)) in
        let kvs = persist_kvs g ~n in
        with_store (fun dir ->
            match persist_fill ~dir kvs with
            | Error e -> R.failf "cannot open the store: %s" e
            | Ok _ -> (
              match
                Persist.open_dir ~revision:(persist_revision ^ "-bumped") ~dir
                  ()
              with
              | Error e -> R.failf "cannot reopen the store: %s" e
              | Ok t2 ->
                let stale_reads =
                  List.filter
                    (fun (k, _) -> Persist.get t2 ~key:k <> None)
                    kvs
                in
                let s2 = Persist.stats t2 in
                Persist.close t2;
                R.all_of
                  [
                    R.check (stale_reads = [])
                      "%d stale-revision entries were served"
                      (List.length stale_reads);
                    R.check
                      (s2.Persist.stale_segments >= 1)
                      "the foreign segment was not counted as stale";
                    (* the old revision still owns its data *)
                    (match Persist.open_dir ~revision:persist_revision ~dir ()
                     with
                    | Error e -> R.failf "cannot reopen at revision A: %s" e
                    | Ok t3 ->
                      let intact =
                        List.for_all
                          (fun (k, v) -> Persist.get t3 ~key:k = Some v)
                          kvs
                      in
                      Persist.close t3;
                      R.check intact
                        "a revision bump destroyed the original entries");
                  ])));
    R.prop "a torn segment tail loses only the uncommitted record"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let n = 2 + Prng.int g ~bound:(2 + (size * 2)) in
        let kvs = persist_kvs g ~n in
        with_store (fun dir ->
            match persist_fill ~dir kvs with
            | Error e -> R.failf "cannot open the store: %s" e
            | Ok seg ->
              let last_k, _ = List.nth kvs (n - 1) in
              let full_len =
                List.fold_left
                  (fun acc (k, v) -> acc + persist_record_len k v)
                  (persist_header_len persist_revision)
                  kvs
              in
              let last_len =
                let k, v = List.nth kvs (n - 1) in
                persist_record_len k v
              in
              (* cut strictly inside the last record *)
              let cut = full_len - 1 - Prng.int g ~bound:(last_len - 1) in
              Persist.Testing.truncate_file ~path:seg ~at:cut;
              (match Persist.open_dir ~revision:persist_revision ~dir () with
              | Error e -> R.failf "cannot reopen the torn store: %s" e
              | Ok t ->
                let prefix_intact =
                  List.for_all
                    (fun (k, v) -> Persist.get t ~key:k = Some v)
                    (List.filteri (fun i _ -> i < n - 1) kvs)
                in
                let torn_gone = Persist.get t ~key:last_k = None in
                let s = Persist.stats t in
                Persist.close t;
                R.all_of
                  [
                    R.check prefix_intact
                      "a committed record was lost to a torn tail";
                    R.check torn_gone "the torn record was served";
                    R.check
                      (s.Persist.skipped_records >= 1)
                      "the torn tail was not counted";
                  ])));
    R.prop "a corrupt record and its tail are skipped, the prefix survives"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let n = 2 + Prng.int g ~bound:(2 + (size * 2)) in
        let kvs = persist_kvs g ~n in
        with_store (fun dir ->
            match persist_fill ~dir kvs with
            | Error e -> R.failf "cannot open the store: %s" e
            | Ok seg ->
              (* flip one byte inside the value of record j *)
              let j = Prng.int g ~bound:n in
              let off_of_record j =
                List.fold_left
                  (fun acc (k, v) -> acc + persist_record_len k v)
                  (persist_header_len persist_revision)
                  (List.filteri (fun i _ -> i < j) kvs)
              in
              let k_j, v_j = List.nth kvs j in
              let at =
                off_of_record j + 9 + String.length k_j
                + Prng.int g ~bound:(String.length v_j)
              in
              Persist.Testing.flip_byte ~path:seg ~at;
              (match Persist.open_dir ~revision:persist_revision ~dir () with
              | Error e -> R.failf "cannot reopen the corrupt store: %s" e
              | Ok t ->
                (* the scan stops at the first bad record, so the
                   corrupted record and everything behind it must read
                   as absent — anything served is either the corrupted
                   bytes themselves or a record framed out of garbage *)
                let bad =
                  List.filteri (fun i _ -> i >= j) kvs
                  |> List.filter (fun (k, _) -> Persist.get t ~key:k <> None)
                in
                let prefix_intact =
                  List.for_all
                    (fun (k, v) -> Persist.get t ~key:k = Some v)
                    (List.filteri (fun i _ -> i < j) kvs)
                in
                let s = Persist.stats t in
                Persist.close t;
                R.all_of
                  [
                    R.check (bad = [])
                      "%d records at or behind the corruption were served"
                      (List.length bad);
                    R.check prefix_intact
                      "a record before the corruption was lost";
                    R.check
                      (s.Persist.skipped_records >= 1)
                      "the corruption was not counted";
                  ])));
  ]

(* Broken-store failure path, mirroring [replacement-selftest]: the
   digest check is deliberately disabled, so a flipped byte that the
   verifying scan would quarantine is read back and served — the
   written-vs-read comparison must fail.  Hidden: reachable by name,
   excluded from {!all}. *)
let persist_selftest_suite =
  [
    R.prop "an unverified read of a corrupted store matches what was written"
      (fun ~seed ~size:_ ->
        let g = Prng.create ~seed in
        let value = Printf.sprintf "payload-%d" (Prng.int g ~bound:1_000_000) in
        with_store (fun dir ->
            match persist_fill ~dir [ ("k", value) ] with
            | Error e -> R.failf "cannot open the store: %s" e
            | Ok seg -> (
              let at = persist_header_len persist_revision + 9 + 1 in
              Persist.Testing.flip_byte ~path:seg ~at;
              match
                Persist.Testing.open_unverified ~revision:persist_revision
                  ~dir ()
              with
              | Error e -> R.failf "cannot reopen the store: %s" e
              | Ok t ->
                let got = Persist.get t ~key:"k" in
                Persist.close t;
                R.check (got = Some value)
                  "read back %s"
                  (match got with
                  | None -> "nothing"
                  | Some v -> Printf.sprintf "%S instead of %S" v value))));
  ]

(* -- selftest ------------------------------------------------------------ *)

(* Intentionally broken oracle (sample instead of population variance):
   passes at size 1, fails at any size with two spread samples, so the
   runner must shrink every failure to size 2.  Used by the CLI contract
   tests to exercise the failure path end to end. *)
let selftest_suite =
  [
    R.prop "stddev matches a (deliberately wrong) sample-variance oracle"
      (fun ~seed ~size ->
        let g = Prng.create ~seed in
        let xs = Gen.floats g ~size in
        let n = List.length xs in
        let broken =
          if n < 2 then 0.0
          else begin
            let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
            let ss =
              List.fold_left
                (fun acc x -> acc +. ((x -. mean) *. (x -. mean)))
                0.0 xs
            in
            sqrt (ss /. float_of_int (n - 1))
          end
        in
        let got = Stats.stddev xs in
        R.check
          (feq ~tol:1e-9 got broken)
          "stddev %.9g <> oracle %.9g on %d samples" got broken n);
  ]

(* -- registry ------------------------------------------------------------ *)

let names =
  [
    "pareto"; "cluster"; "assign"; "trace"; "stats"; "fingerprint"; "sim";
    "eval"; "estimate"; "pipeline"; "explore"; "shard"; "replacement";
    "persist";
  ]

let all ?(jobs = Mx_util.Task_pool.default_jobs ()) () =
  [
    ("pareto", pareto_suite);
    ("cluster", cluster_suite);
    ("assign", assign_suite);
    ("trace", trace_suite);
    ("stats", stats_suite);
    ("fingerprint", fingerprint_suite);
    ("sim", sim_suite);
    ("eval", eval_suite);
    ("estimate", estimate_suite);
    ("pipeline", pipeline_suite);
    ("explore", explore_suite ~jobs);
    ("shard", shard_suite ~jobs);
    ("replacement", replacement_suite);
    ("persist", persist_suite ~jobs);
  ]

let find ?jobs name =
  if name = "selftest" then Some selftest_suite
  else if name = "replacement-selftest" then Some replacement_selftest_suite
  else if name = "persist-selftest" then Some persist_selftest_suite
  else List.assoc_opt name (all ?jobs ())
