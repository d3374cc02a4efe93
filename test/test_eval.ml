(* Structural fingerprints (mem / conn / workload), Design.structural_key,
   and the Mx_sim.Eval engine: fidelity-aware caching, Exact->Sampled
   promotion, and cached-vs-fresh byte-identity of whole explorations
   at several jobs levels. *)

module Params = Mx_mem.Params
module Mem_arch = Mx_mem.Mem_arch
module Conn_arch = Mx_connect.Conn_arch
module Cluster = Mx_connect.Cluster
module Component = Mx_connect.Component
module Eval = Mx_sim.Eval
module Explore = Conex.Explore
module Design = Conex.Design

(* Every Eval test leaves the process-wide cache cold and at its default
   capacity so suite order never matters. *)
let with_pristine_cache f =
  Eval.set_cache_capacity Eval.default_cache_capacity;
  Fun.protect
    ~finally:(fun () -> Eval.set_cache_capacity Eval.default_cache_capacity)
    f

(* -- memory fingerprints --------------------------------------------------- *)

let base_arch ?(label = "base") () =
  Mem_arch.make ~label ~cache:Helpers.small_cache ~sbuf:Helpers.default_sbuf
    ~lldma:Helpers.default_lldma
    ~sram:{ Params.s_size = 4096; s_latency = 1 }
    ~bindings:
      [| Mem_arch.To_cache; Mem_arch.To_sbuf; Mem_arch.To_lldma;
         Mem_arch.To_sram |]
    ()

let test_mem_fingerprint_ignores_label () =
  Alcotest.(check string)
    "same structure, different label"
    (Mem_arch.fingerprint (base_arch ~label:"a" ()))
    (Mem_arch.fingerprint (base_arch ~label:"b" ()))

let test_mem_fingerprint_sensitivity () =
  let fp = Mem_arch.fingerprint (base_arch ()) in
  let sram = { Params.s_size = 4096; s_latency = 1 } in
  let bindings () =
    [| Mem_arch.To_cache; Mem_arch.To_sbuf; Mem_arch.To_lldma;
       Mem_arch.To_sram |]
  in
  let variants =
    [
      ( "cache size",
        Mem_arch.make ~label:"v"
          ~cache:{ Helpers.small_cache with Params.c_size = 8192 }
          ~sbuf:Helpers.default_sbuf ~lldma:Helpers.default_lldma ~sram
          ~bindings:(bindings ()) () );
      ( "cache line",
        Mem_arch.make ~label:"v"
          ~cache:{ Helpers.small_cache with Params.c_line = 16 }
          ~sbuf:Helpers.default_sbuf ~lldma:Helpers.default_lldma ~sram
          ~bindings:(bindings ()) () );
      ( "cache assoc",
        Mem_arch.make ~label:"v"
          ~cache:{ Helpers.small_cache with Params.c_assoc = 4 }
          ~sbuf:Helpers.default_sbuf ~lldma:Helpers.default_lldma ~sram
          ~bindings:(bindings ()) () );
      ( "cache latency",
        Mem_arch.make ~label:"v"
          ~cache:{ Helpers.small_cache with Params.c_latency = 2 }
          ~sbuf:Helpers.default_sbuf ~lldma:Helpers.default_lldma ~sram
          ~bindings:(bindings ()) () );
      ( "sbuf streams",
        Mem_arch.make ~label:"v" ~cache:Helpers.small_cache
          ~sbuf:
            {
              Helpers.default_sbuf with
              Params.sb_streams = Helpers.default_sbuf.Params.sb_streams + 1;
            }
          ~lldma:Helpers.default_lldma ~sram ~bindings:(bindings ()) () );
      ( "lldma entries",
        Mem_arch.make ~label:"v" ~cache:Helpers.small_cache
          ~sbuf:Helpers.default_sbuf
          ~lldma:
            {
              Helpers.default_lldma with
              Params.ll_entries = Helpers.default_lldma.Params.ll_entries + 1;
            }
          ~sram ~bindings:(bindings ()) () );
      ( "sram size",
        Mem_arch.make ~label:"v" ~cache:Helpers.small_cache
          ~sbuf:Helpers.default_sbuf ~lldma:Helpers.default_lldma
          ~sram:{ Params.s_size = 8192; s_latency = 1 }
          ~bindings:(bindings ()) () );
      ( "absent module",
        Mem_arch.make ~label:"v" ~cache:Helpers.small_cache
          ~sbuf:Helpers.default_sbuf ~lldma:Helpers.default_lldma ~sram
          ~victim:{ Params.v_entries = 4; v_latency = 1 }
          ~bindings:(bindings ()) () );
      ( "binding table",
        Mem_arch.make ~label:"v" ~cache:Helpers.small_cache
          ~sbuf:Helpers.default_sbuf ~lldma:Helpers.default_lldma ~sram
          ~bindings:
            [| Mem_arch.To_cache; Mem_arch.To_cache; Mem_arch.To_lldma;
               Mem_arch.To_sram |]
          () );
    ]
  in
  List.iter
    (fun (what, arch) ->
      Helpers.check_true (what ^ " changes the fingerprint")
        (Mem_arch.fingerprint arch <> fp))
    variants

let test_mem_fingerprint_policy_distinct () =
  (* replacement policy is design identity: every policy yields its own
     fingerprint on an otherwise identical architecture *)
  let fp policy =
    Mem_arch.fingerprint
      (Mem_arch.make ~label:"p"
         ~cache:{ Helpers.small_cache with Params.c_policy = policy }
         ~sbuf:Helpers.default_sbuf ~lldma:Helpers.default_lldma
         ~sram:{ Params.s_size = 4096; s_latency = 1 }
         ~bindings:
           [| Mem_arch.To_cache; Mem_arch.To_sbuf; Mem_arch.To_lldma;
              Mem_arch.To_sram |]
         ())
  in
  let fps = List.map fp Params.all_policies in
  Helpers.check_int "one fingerprint per policy"
    (List.length Params.all_policies)
    (List.length (List.sort_uniq compare fps))

(* -- connectivity fingerprints --------------------------------------------- *)

let conn_pairs () =
  let w = Helpers.mixed_workload ~scale:4000 () in
  let arch = Helpers.rich_arch w in
  let profile = Helpers.profile_of arch w in
  let brg = Mx_connect.Brg.build arch profile in
  List.map
    (fun ch ->
      let cl = Cluster.of_channel ch in
      let comp =
        if cl.Cluster.offchip then Component.by_name "off32"
        else Component.by_name "ded32"
      in
      (cl, comp))
    brg.Mx_connect.Brg.channels

let test_conn_fingerprint_order_insensitive () =
  let pairs = conn_pairs () in
  Alcotest.(check string)
    "binding order does not matter"
    (Conn_arch.fingerprint (Conn_arch.make pairs))
    (Conn_arch.fingerprint (Conn_arch.make (List.rev pairs)))

let test_conn_fingerprint_component_sensitive () =
  let pairs = conn_pairs () in
  let swapped =
    List.map
      (fun ((cl : Cluster.t), comp) ->
        if cl.Cluster.offchip then (cl, comp)
        else (cl, Component.by_name "ahb32"))
      pairs
  in
  Helpers.check_true "changing a component changes the fingerprint"
    (Conn_arch.fingerprint (Conn_arch.make pairs)
    <> Conn_arch.fingerprint (Conn_arch.make swapped))

(* -- workload fingerprints ------------------------------------------------- *)

let test_workload_fingerprint_stable () =
  Alcotest.(check string)
    "same generator, same fingerprint"
    (Mx_trace.Workload.fingerprint (Helpers.mixed_workload ~scale:4000 ()))
    (Mx_trace.Workload.fingerprint (Helpers.mixed_workload ~scale:4000 ()))

let test_workload_fingerprint_sensitivity () =
  let fp = Mx_trace.Workload.fingerprint (Helpers.mixed_workload ~scale:4000 ()) in
  Helpers.check_true "trace length changes it"
    (Mx_trace.Workload.fingerprint (Helpers.mixed_workload ~scale:4100 ()) <> fp);
  Helpers.check_true "different content (other kernel) changes it"
    (Mx_trace.Workload.fingerprint (Helpers.stream_workload ~scale:4000 ()) <> fp)

let test_trace_content_hash_one_access () =
  let mk extra =
    let t = Mx_trace.Trace.create () in
    Mx_trace.Trace.add t ~addr:0x1000 ~size:4 ~kind:Mx_trace.Access.Read
      ~region:0;
    Mx_trace.Trace.add t ~addr:(0x2000 + extra) ~size:4
      ~kind:Mx_trace.Access.Read ~region:0;
    Mx_trace.Trace.content_hash t
  in
  Helpers.check_true "hash is non-negative" (mk 0 >= 0);
  Helpers.check_true "single-address change flips the hash" (mk 0 <> mk 4)

(* -- Design.structural_key ------------------------------------------------- *)

let design_pair () =
  let w = Helpers.mixed_workload ~scale:4000 () in
  let arch = Helpers.rich_arch w in
  let profile = Helpers.profile_of arch w in
  let brg = Mx_connect.Brg.build arch profile in
  let conn = Helpers.naive_conn brg in
  let d = Design.make ~workload_name:"mixed" ~mem:arch ~conn () in
  (w, arch, profile, brg, conn, d)

let test_structural_key_ignores_results () =
  let w, arch, _, _, conn, d = design_pair () in
  let sim = Mx_sim.Cycle_sim.run ~workload:w ~arch ~conn () in
  let d' = Design.with_sim d sim in
  Helpers.check_true "sim result does not change the key"
    (Design.structural_key d = Design.structural_key d');
  Helpers.check_true "equal_structure sees through evaluation state"
    (Design.equal_structure d d')

let test_structural_key_distinguishes_conns () =
  let _, arch, _, brg, conn, d = design_pair () in
  let shared = Helpers.shared_conn brg in
  let d2 = Design.make ~workload_name:"mixed" ~mem:arch ~conn:shared () in
  Helpers.check_true "different connectivity, different key"
    (Design.structural_key d <> Design.structural_key d2);
  Helpers.check_true "fingerprints agree with equal_structure"
    (not (Design.equal_structure d d2));
  ignore conn

(* -- the evaluation engine ------------------------------------------------- *)

let eval_fixture () =
  let w = Helpers.mixed_workload ~scale:4000 () in
  let arch = Helpers.rich_arch w in
  let profile = Helpers.profile_of arch w in
  let brg = Mx_connect.Brg.build arch profile in
  let conn = Helpers.naive_conn brg in
  (w, arch, profile, conn)

let test_eval_exact_cached () =
  with_pristine_cache @@ fun () ->
  let w, arch, _, conn = eval_fixture () in
  let s0 = Eval.cache_stats () in
  let r1 = Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn () in
  let r2 = Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn () in
  let s1 = Eval.cache_stats () in
  Helpers.check_true "second evaluation is the cached first"
    (r1 = r2 && r1.Mx_sim.Sim_result.exact);
  Helpers.check_int "one miss" 1
    (s1.Mx_util.Memo_cache.misses - s0.Mx_util.Memo_cache.misses);
  Helpers.check_int "one hit" 1
    (s1.Mx_util.Memo_cache.hits - s0.Mx_util.Memo_cache.hits)

let test_eval_exact_promotes_to_sampled () =
  with_pristine_cache @@ fun () ->
  let w, arch, _, conn = eval_fixture () in
  let exact = Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn () in
  let s0 = Eval.cache_stats () in
  let sampled =
    Eval.eval ~fidelity:(Eval.Sampled (500, 1500)) ~workload:w ~arch ~conn ()
  in
  let s1 = Eval.cache_stats () in
  Helpers.check_true "sampled request served by the exact result"
    (sampled = exact);
  Helpers.check_int "promotion is a hit, not a recompute" 0
    (s1.Mx_util.Memo_cache.misses - s0.Mx_util.Memo_cache.misses)

let test_eval_sampled_does_not_serve_exact () =
  with_pristine_cache @@ fun () ->
  let w, arch, _, conn = eval_fixture () in
  let sampled =
    Eval.eval ~fidelity:(Eval.Sampled (500, 1500)) ~workload:w ~arch ~conn ()
  in
  let exact = Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn () in
  Helpers.check_true "lower fidelity never satisfies a higher request"
    (exact.Mx_sim.Sim_result.exact && not sampled.Mx_sim.Sim_result.exact)

let test_eval_distinct_sample_windows_distinct () =
  with_pristine_cache @@ fun () ->
  let w, arch, _, conn = eval_fixture () in
  let s0 = Eval.cache_stats () in
  ignore
    (Eval.eval ~fidelity:(Eval.Sampled (500, 1500)) ~workload:w ~arch ~conn ());
  ignore
    (Eval.eval ~fidelity:(Eval.Sampled (1000, 9000)) ~workload:w ~arch ~conn ());
  let s1 = Eval.cache_stats () in
  Helpers.check_int "different windows are different entries" 2
    (s1.Mx_util.Memo_cache.misses - s0.Mx_util.Memo_cache.misses)

let test_eval_policy_keyed_separately () =
  (* designs differing only in replacement policy must land in distinct
     memo entries: no stale cross-policy cache hits *)
  with_pristine_cache @@ fun () ->
  let w = Helpers.mixed_workload ~scale:4000 () in
  let arch_of policy =
    Helpers.cache_only_arch
      ~cache:
        { Helpers.small_cache with Params.c_assoc = 4; c_policy = policy }
      w
  in
  let arch_lru = arch_of Params.True_lru
  and arch_fifo = arch_of Params.Fifo in
  let profile = Helpers.profile_of arch_lru w in
  let brg = Mx_connect.Brg.build arch_lru profile in
  let conn = Helpers.naive_conn brg in
  let s0 = Eval.cache_stats () in
  let r1 = Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch:arch_lru ~conn () in
  let r2 = Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch:arch_fifo ~conn () in
  let s1 = Eval.cache_stats () in
  Helpers.check_int "two policies, two entries" 2
    (s1.Mx_util.Memo_cache.misses - s0.Mx_util.Memo_cache.misses);
  Helpers.check_int "no cross-policy hit" 0
    (s1.Mx_util.Memo_cache.hits - s0.Mx_util.Memo_cache.hits);
  let r1' = Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch:arch_lru ~conn ()
  and r2' =
    Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch:arch_fifo ~conn ()
  in
  let s2 = Eval.cache_stats () in
  Helpers.check_int "warm lookups hit per policy" 2
    (s2.Mx_util.Memo_cache.hits - s1.Mx_util.Memo_cache.hits);
  Helpers.check_true "each policy is served its own result"
    (r1 = r1' && r2 = r2')

(* -- recorded columns ------------------------------------------------------ *)

let column_misses () = (Eval.column_stats ()).Mx_util.Memo_cache.misses

let test_eval_one_column_per_arch () =
  with_pristine_cache @@ fun () ->
  let w, arch, profile, _ = eval_fixture () in
  let brg = Mx_connect.Brg.build arch profile in
  let conns =
    Mx_connect.Assign.enumerate_levels ~max_designs_per_level:4
      ~onchip:Component.onchip_library ~offchip:Component.offchip_library
      brg.Mx_connect.Brg.channels
  in
  let m0 = column_misses () in
  List.iter
    (fun conn ->
      let r = Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn () in
      Alcotest.(check string)
        "a shared column gives the fresh result"
        (Mx_sim.Sim_result.to_wire
           (Mx_sim.Cycle_sim.run ~workload:w ~arch ~conn ()))
        (Mx_sim.Sim_result.to_wire r))
    conns;
  Helpers.check_true "several connectivities" (List.length conns > 2);
  Helpers.check_int "one recording for all of them" 1 (column_misses () - m0)

let test_eval_column_per_fidelity () =
  with_pristine_cache @@ fun () ->
  let w, arch, _, conn = eval_fixture () in
  let m0 = column_misses () in
  ignore (Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn ());
  let shared =
    Helpers.shared_conn
      (Mx_connect.Brg.build arch (Helpers.profile_of arch w))
  in
  let sampled =
    Eval.eval ~fidelity:(Eval.Sampled (500, 1500)) ~workload:w ~arch
      ~conn:shared ()
  in
  Helpers.check_int "exact and sampled record one column each" 2
    (column_misses () - m0);
  Alcotest.(check string)
    "the sampled column is the sampled one"
    (Mx_sim.Sim_result.to_wire
       (Mx_sim.Cycle_sim.run ~sample:(500, 1500) ~workload:w ~arch
          ~conn:shared ()))
    (Mx_sim.Sim_result.to_wire sampled)

let test_eval_clear_drops_columns () =
  with_pristine_cache @@ fun () ->
  let w, arch, _, conn = eval_fixture () in
  ignore (Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn ());
  let resident () = (Eval.column_stats ()).Mx_util.Memo_cache.size in
  Helpers.check_int "one column resident" 1 (resident ());
  Eval.clear_cache ();
  Helpers.check_int "clear_cache drops it" 0 (resident ());
  let m0 = column_misses () in
  ignore (Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn ());
  Helpers.check_int "the next evaluation records again" 1
    (column_misses () - m0);
  Eval.set_cache_capacity 0;
  let m0 = column_misses () in
  ignore (Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn ());
  ignore (Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn ());
  Helpers.check_int "capacity 0 keeps no column" 2 (column_misses () - m0);
  Helpers.check_int "and holds none" 0 (resident ())

(* Batches that share keys, run on two domains in opposite orders:
   each claims some keys the other needs.  Neither waits while it holds
   a claim, so both finish; single-flight still computes each key once
   and serves every other lookup as a hit. *)
let test_eval_overlapping_batches () =
  with_pristine_cache @@ fun () ->
  let w, arch, profile, _ = eval_fixture () in
  let brg = Mx_connect.Brg.build arch profile in
  let conns =
    Mx_connect.Assign.enumerate_levels ~max_designs_per_level:4
      ~onchip:Component.onchip_library ~offchip:Component.offchip_library
      brg.Mx_connect.Brg.channels
  in
  let batches = [ conns; List.rev conns; conns; List.rev conns ] in
  let before = Eval.cache_stats () in
  let got =
    Mx_util.Task_pool.parallel_map ~jobs:2 ~chunk:1
      (fun batch ->
        List.map
          (fun (r, _) -> Mx_sim.Sim_result.to_wire r)
          (Eval.eval_many ~fidelity:Eval.Exact ~workload:w ~arch batch))
      batches
  in
  let fresh conn =
    Mx_sim.Sim_result.to_wire (Mx_sim.Cycle_sim.run ~workload:w ~arch ~conn ())
  in
  List.iter2
    (fun batch results ->
      Alcotest.(check (list string))
        "every batch gives the fresh results" (List.map fresh batch) results)
    batches got;
  let after = Eval.cache_stats () in
  let n = List.length conns in
  Helpers.check_int "one computation per connectivity" n
    (after.Mx_util.Memo_cache.misses - before.Mx_util.Memo_cache.misses);
  Helpers.check_int "every other lookup is a hit" (3 * n)
    (after.Mx_util.Memo_cache.hits - before.Mx_util.Memo_cache.hits)

let test_eval_bad_windows_rejected () =
  with_pristine_cache @@ fun () ->
  let w, arch, _, conn = eval_fixture () in
  (* a cached Exact result would otherwise be promoted *)
  ignore (Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn ());
  List.iter
    (fun (on, off) ->
      Alcotest.check_raises
        (Printf.sprintf "Sampled (%d, %d) rejected" on off)
        (Invalid_argument "Eval.eval: bad sampling windows")
        (fun () ->
          ignore
            (Eval.eval ~fidelity:(Eval.Sampled (on, off)) ~workload:w ~arch
               ~conn ())))
    [ (0, 9000); (10, -1); (-5, 5) ]

(* -- cached vs fresh whole explorations ------------------------------------ *)

let small_config jobs =
  {
    Explore.reduced_config with
    Explore.apex =
      { Mx_apex.Explore.reduced_config with Mx_apex.Explore.max_selected = 3 };
    jobs;
  }

let strip_wall (r : Explore.result) =
  ( r.Explore.simulated,
    r.Explore.pareto_cost_perf,
    r.Explore.n_estimates,
    r.Explore.n_simulations )

(* A full exploration must produce byte-identical designs whether the
   cache is disabled, cold, or fully warm — at every jobs level.  The
   workloads are PRNG-driven: different seeds exercise different design
   spaces. *)
let test_explore_cache_transparent () =
  with_pristine_cache @@ fun () ->
  List.iter
    (fun seed ->
      let w =
        Mx_trace.Synthetic.generate ~name:"t" ~scale:3000 ~seed
          ~specs:
            [
              Mx_trace.Synthetic.spec ~name:"stream" ~elems:2048 ~share:2.0
                Mx_trace.Region.Stream;
              Mx_trace.Synthetic.spec ~name:"hot" ~elems:64 ~share:1.5
                ~skew:1.1 Mx_trace.Region.Indexed;
              Mx_trace.Synthetic.spec ~name:"list" ~elems:2048 ~share:1.0
                Mx_trace.Region.Self_indirect;
            ]
      in
      List.iter
        (fun jobs ->
          Eval.set_cache_capacity 0;
          let uncached = Explore.run ~config:(small_config jobs) w in
          Eval.set_cache_capacity Eval.default_cache_capacity;
          let cold = Explore.run ~config:(small_config jobs) w in
          let warm = Explore.run ~config:(small_config jobs) w in
          let hits = (Eval.cache_stats ()).Mx_util.Memo_cache.hits in
          Helpers.check_true
            (Printf.sprintf "seed %d jobs %d: cold run = uncached run" seed
               jobs)
            (strip_wall cold = strip_wall uncached);
          Helpers.check_true
            (Printf.sprintf "seed %d jobs %d: warm run = uncached run" seed
               jobs)
            (strip_wall warm = strip_wall uncached);
          Helpers.check_true
            (Printf.sprintf "seed %d jobs %d: warm run hit the cache" seed
               jobs)
            (hits > 0))
        [ 1; Helpers.test_jobs ])
    [ 11; 42 ]

(* -- Phase I and the result tiers ------------------------------------------ *)

(* Phase I estimates each connectivity from its architecture's plan:
   every estimate equals a direct estimator call, and neither the hot
   tier nor an open store sees one, at every jobs level. *)
let test_phase1_bypasses_tiers () =
  with_pristine_cache @@ fun () ->
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mx-eval-phase1-%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      Eval.close_persist ();
      if Sys.file_exists dir && Sys.is_directory dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
  @@ fun () ->
  (match Eval.open_persist ~dir with
  | Ok () -> ()
  | Error e -> Alcotest.failf "open_persist: %s" e);
  let w = Helpers.mixed_workload ~scale:4000 () in
  let cands =
    Mx_apex.Explore.select ~config:(small_config 1).Explore.apex
      (Mx_trace.Profile.analyze w)
  in
  let wire = Mx_sim.Sim_result.to_wire in
  List.iter
    (fun jobs ->
      Eval.set_cache_capacity Eval.default_cache_capacity;
      let s0 = Eval.cache_stats () in
      let per_arch =
        match Explore.phase1 (small_config jobs) w cands with
        | Some per_arch -> per_arch
        | None -> Alcotest.fail "Phase I stopped without an interrupt"
      in
      let s1 = Eval.cache_stats () in
      let expected, got =
        List.split
          (List.concat
             (List.map2
                (fun (c : Mx_apex.Explore.candidate) designs ->
                  List.map
                    (fun (d : Design.t) ->
                      ( wire
                          (Mx_sim.Estimator.estimate ~workload:w
                             ~arch:c.Mx_apex.Explore.arch
                             ~profile:c.Mx_apex.Explore.profile
                             ~conn:d.Design.conn),
                        Option.fold ~none:"no estimate" ~some:wire
                          d.Design.est ))
                    designs)
                cands per_arch))
      in
      Helpers.check_true
        (Printf.sprintf "jobs %d: Phase I estimated designs" jobs)
        (List.length got > List.length cands);
      Alcotest.(check (list string))
        (Printf.sprintf "jobs %d: every estimate equals the estimator" jobs)
        expected got;
      Helpers.check_int
        (Printf.sprintf "jobs %d: no result looked up" jobs)
        0
        (s1.Mx_util.Memo_cache.misses - s0.Mx_util.Memo_cache.misses);
      Helpers.check_int
        (Printf.sprintf "jobs %d: no result resident" jobs)
        0 s1.Mx_util.Memo_cache.size;
      Helpers.check_int
        (Printf.sprintf "jobs %d: nothing written to the store" jobs)
        0
        (match Eval.persist_stats () with
        | Some s -> s.Mx_util.Persist_cache.appended
        | None -> -1))
    [ 1; Helpers.test_jobs ]

let suite =
  ( "eval",
    [
      Alcotest.test_case "mem fingerprint ignores label" `Quick
        test_mem_fingerprint_ignores_label;
      Alcotest.test_case "mem fingerprint sensitivity" `Quick
        test_mem_fingerprint_sensitivity;
      Alcotest.test_case "mem fingerprint per policy" `Quick
        test_mem_fingerprint_policy_distinct;
      Alcotest.test_case "conn fingerprint order-insensitive" `Quick
        test_conn_fingerprint_order_insensitive;
      Alcotest.test_case "conn fingerprint component-sensitive" `Quick
        test_conn_fingerprint_component_sensitive;
      Alcotest.test_case "workload fingerprint stable" `Quick
        test_workload_fingerprint_stable;
      Alcotest.test_case "workload fingerprint sensitivity" `Quick
        test_workload_fingerprint_sensitivity;
      Alcotest.test_case "trace content hash" `Quick
        test_trace_content_hash_one_access;
      Alcotest.test_case "structural key ignores results" `Quick
        test_structural_key_ignores_results;
      Alcotest.test_case "structural key distinguishes conns" `Quick
        test_structural_key_distinguishes_conns;
      Alcotest.test_case "exact evaluation cached" `Quick
        test_eval_exact_cached;
      Alcotest.test_case "exact promotes to sampled" `Quick
        test_eval_exact_promotes_to_sampled;
      Alcotest.test_case "sampled never serves exact" `Quick
        test_eval_sampled_does_not_serve_exact;
      Alcotest.test_case "sample windows keyed separately" `Quick
        test_eval_distinct_sample_windows_distinct;
      Alcotest.test_case "policies keyed separately" `Quick
        test_eval_policy_keyed_separately;
      Alcotest.test_case "one column per architecture" `Quick
        test_eval_one_column_per_arch;
      Alcotest.test_case "one column per fidelity" `Quick
        test_eval_column_per_fidelity;
      Alcotest.test_case "clear_cache drops columns" `Quick
        test_eval_clear_drops_columns;
      Alcotest.test_case "bad windows rejected before lookup" `Quick
        test_eval_bad_windows_rejected;
      Alcotest.test_case "exploration cache-transparent" `Slow
        test_explore_cache_transparent;
      Alcotest.test_case "Phase I bypasses the result tiers" `Quick
        test_phase1_bypasses_tiers;
      Alcotest.test_case "overlapping batches on two domains" `Quick
        test_eval_overlapping_batches;
    ] )
