(* Task_pool.parallel_map semantics (ordering, exceptions, chunking,
   serial fallback) and the exploration determinism guarantee: Explore.run
   returns byte-identical results at every jobs level. *)

module Task_pool = Mx_util.Task_pool
module Design = Conex.Design
module Explore = Conex.Explore

exception Boom of int

(* -- parallel_map --------------------------------------------------------- *)

let test_jobs1_spawns_nothing () =
  let before = Task_pool.pool_size () in
  let r = Task_pool.parallel_map ~jobs:1 ~chunk:4 (fun x -> x + 1) [ 1; 2; 3 ] in
  Helpers.check_true "jobs=1 maps correctly" (r = [ 2; 3; 4 ]);
  Helpers.check_int "jobs=1 spawns no domains" before (Task_pool.pool_size ())

let test_ordering () =
  let xs = List.init 1000 Fun.id in
  let expect = List.map (fun x -> x * x) xs in
  List.iter
    (fun (jobs, chunk) ->
      Helpers.check_true
        (Printf.sprintf "jobs=%d chunk=%d preserves order" jobs chunk)
        (Task_pool.parallel_map ~jobs ~chunk (fun x -> x * x) xs = expect))
    [ (2, 1); (4, 7); (4, 64); (8, 1000); (3, 5000) ]

let test_empty_list () =
  Helpers.check_true "empty input"
    (Task_pool.parallel_map ~jobs:4 ~chunk:3 succ [] = [])

let test_singleton () =
  Helpers.check_true "singleton input"
    (Task_pool.parallel_map ~jobs:4 ~chunk:3 succ [ 41 ] = [ 42 ])

let test_list_shorter_than_jobs () =
  Helpers.check_true "2 elements, 8 jobs"
    (Task_pool.parallel_map ~jobs:8 ~chunk:1 succ [ 1; 2 ] = [ 2; 3 ])

let test_chunk_clamped () =
  (* chunk <= 0 is clamped to 1, chunk > length is one big chunk *)
  Helpers.check_true "chunk=0 clamps"
    (Task_pool.parallel_map ~jobs:2 ~chunk:0 succ [ 1; 2; 3 ] = [ 2; 3; 4 ]);
  Helpers.check_true "chunk larger than list"
    (Task_pool.parallel_map ~jobs:2 ~chunk:100 succ [ 1; 2; 3 ] = [ 2; 3; 4 ])

let test_negative_jobs_rejected () =
  Helpers.check_true "jobs < 0 rejected"
    (try
       ignore (Task_pool.parallel_map ~jobs:(-1) ~chunk:1 succ [ 1 ]);
       false
     with Invalid_argument _ -> true)

let test_exception_propagates () =
  let xs = List.init 40 Fun.id in
  Helpers.check_true "worker exception re-raised in caller"
    (try
       ignore
         (Task_pool.parallel_map ~jobs:4 ~chunk:3
            (fun x -> if x = 13 then raise (Boom x) else x)
            xs);
       false
     with Boom 13 -> true)

let test_first_exception_wins () =
  (* two failing elements in different chunks: the one earliest in input
     order is the one reported *)
  let xs = List.init 40 Fun.id in
  Helpers.check_true "first error in input order reported"
    (try
       ignore
         (Task_pool.parallel_map ~jobs:4 ~chunk:2
            (fun x -> if x = 11 || x = 37 then raise (Boom x) else x)
            xs);
       false
     with Boom n -> n = 11)

let test_nested_call_degrades () =
  (* parallel_map from inside a worker must not deadlock the pool *)
  let outer =
    Task_pool.parallel_map ~jobs:4 ~chunk:1
      (fun x ->
        Task_pool.parallel_map ~jobs:4 ~chunk:1 (fun y -> x * y) [ 1; 2; 3 ])
      [ 1; 2 ]
  in
  Helpers.check_true "nested map correct" (outer = [ [ 1; 2; 3 ]; [ 2; 4; 6 ] ])

let test_pool_reused () =
  ignore (Task_pool.parallel_map ~jobs:3 ~chunk:1 succ (List.init 16 Fun.id));
  let size1 = Task_pool.pool_size () in
  ignore (Task_pool.parallel_map ~jobs:3 ~chunk:1 succ (List.init 16 Fun.id));
  Helpers.check_int "pool does not grow on repeat calls" size1
    (Task_pool.pool_size ())

(* -- thin_by_cost regression ---------------------------------------------- *)

let fake_result lat =
  {
    Mx_sim.Sim_result.accesses = 100;
    cycles = 100;
    total_mem_latency = 100;
    avg_mem_latency = lat;
    avg_energy_nj = 1.0;
    miss_ratio = 0.1;
    bus_wait_cycles = 0;
    dram_bytes = 0;
    exact = false;
  }

let some_designs () =
  let w = Helpers.mixed_workload ~scale:2000 () in
  List.map
    (fun cache ->
      let arch = Helpers.cache_only_arch ~cache w in
      let profile = Helpers.profile_of arch w in
      let conn = Helpers.naive_conn (Mx_connect.Brg.build arch profile) in
      Design.make ~workload_name:"thin" ~mem:arch ~conn
        ~est:(fake_result 10.0) ())
    [ Helpers.tiny_cache; Helpers.small_cache ]

let test_thin_keep1_no_division_by_zero () =
  (* regression: keep = 1 with n > 1 divided by keep - 1 = 0 *)
  let designs = some_designs () in
  match Explore.thin_by_cost ~keep:1 designs with
  | [ d ] ->
    let cheapest =
      List.fold_left (fun acc x -> Float.min acc (Design.cost x)) infinity
        designs
    in
    Helpers.check_true "keeps the single cheapest design"
      (Design.cost d = cheapest)
  | other ->
    Alcotest.failf "thin_by_cost ~keep:1 returned %d designs"
      (List.length other)

let test_thin_keep_bounds () =
  let designs = some_designs () in
  Helpers.check_int "keep=0 is identity" (List.length designs)
    (List.length (Explore.thin_by_cost ~keep:0 designs));
  Helpers.check_int "keep>=n is identity" (List.length designs)
    (List.length (Explore.thin_by_cost ~keep:10 designs))

(* -- Explore.run determinism: serial vs parallel --------------------------- *)

let small_config jobs =
  {
    Explore.reduced_config with
    Explore.apex =
      { Mx_apex.Explore.reduced_config with Mx_apex.Explore.max_selected = 3 };
    jobs;
  }

let strip_wall (r : Explore.result) =
  (* wall_seconds is the only field allowed to differ between runs *)
  ( r.Explore.simulated,
    r.Explore.pareto_cost_perf,
    r.Explore.n_estimates,
    r.Explore.n_simulations,
    List.map (fun (c : Mx_apex.Explore.candidate) -> c.Mx_apex.Explore.arch)
      r.Explore.apex_selected )

(* Both arms must run against a cold result cache: a warm cache would
   serve the second run from the first one's entries — in the sampled
   case even promoting the refine pass's exact results into the sampled
   phase — so the two arms would no longer compute the same thing. *)
let cold_run config w =
  Mx_sim.Eval.clear_cache ();
  Explore.run ~config w

let test_run_parallel_matches_serial () =
  let w = Helpers.mixed_workload ~scale:6000 () in
  let serial = cold_run (small_config 1) w in
  let parallel = cold_run (small_config 4) w in
  Helpers.check_true "results byte-identical at jobs=4"
    (strip_wall serial = strip_wall parallel)

let test_run_sampled_refine_parallel_matches_serial () =
  (* exercises the sampled + refine_top re-simulation pass too *)
  let w = Helpers.mixed_workload ~scale:6000 () in
  let with_sampling jobs =
    { (small_config jobs) with Explore.sample = Some (500, 1500); refine_top = 4 }
  in
  let serial = cold_run (with_sampling 1) w in
  let parallel = cold_run (with_sampling 3) w in
  Helpers.check_true "sampled+refined results byte-identical"
    (strip_wall serial = strip_wall parallel)

(* The reference Phase I keeps every estimate: the same designs with
   bit-identical estimates, in the same order, at every jobs and shard
   count. *)
let test_phase1_parallel_sharded_matches_serial () =
  let w = Helpers.mixed_workload ~scale:6000 () in
  let cands =
    Mx_apex.Explore.select ~config:(small_config 1).Explore.apex
      (Mx_trace.Profile.analyze w)
  in
  let phase1 ~jobs ~shards =
    match Explore.phase1 { (small_config jobs) with Explore.shards } w cands with
    | Some per_arch ->
      List.map
        (List.map (fun (d : Conex.Design.t) ->
             ( Conex.Design.structural_key d,
               Option.map Mx_sim.Sim_result.to_wire d.Conex.Design.est )))
        per_arch
    | None -> Alcotest.fail "Phase I stopped without an interrupt"
  in
  let serial = phase1 ~jobs:1 ~shards:1 in
  Helpers.check_true "Phase I estimated something"
    (List.exists (fun l -> l <> []) serial);
  List.iter
    (fun (jobs, shards) ->
      Helpers.check_true
        (Printf.sprintf "Phase I at jobs=%d shards=%d = serial" jobs shards)
        (phase1 ~jobs ~shards = serial))
    [ (1, 4); (Helpers.test_jobs, 1); (Helpers.test_jobs, 4) ]

(* -- parallel_map_commit --------------------------------------------------- *)

(* Commits must arrive on the calling domain, in input order, exactly
   once each — whatever the jobs/chunk split. *)
let test_commit_ordered () =
  let xs = List.init 500 Fun.id in
  List.iter
    (fun (jobs, chunk) ->
      let caller = Domain.self () in
      let seen = ref [] in
      let n =
        Task_pool.parallel_map_commit ~jobs ~chunk
          ~commit:(fun i x y ->
            Helpers.check_true "commit runs on the calling domain"
              (Domain.self () = caller);
            Helpers.check_int "index matches element" i x;
            seen := y :: !seen)
          (fun x -> x * 3)
          xs
      in
      Helpers.check_int
        (Printf.sprintf "jobs=%d chunk=%d commits everything" jobs chunk)
        (List.length xs) n;
      Helpers.check_true "commits in input order"
        (List.rev !seen = List.map (fun x -> x * 3) xs))
    [ (1, 4); (2, 1); (4, 7); (4, 64); (8, 500) ]

let test_commit_stop_prefix () =
  let xs = List.init 200 Fun.id in
  List.iter
    (fun jobs ->
      let seen = ref [] in
      let committed = ref 0 in
      let stop () = !committed >= 20 in
      let n =
        Task_pool.parallel_map_commit ~jobs ~chunk:3
          ~should_stop:stop
          ~commit:(fun _ x _ ->
            incr committed;
            seen := x :: !seen)
          Fun.id xs
      in
      Helpers.check_int
        (Printf.sprintf "jobs=%d stops after the requested prefix" jobs)
        20 n;
      Helpers.check_true "the committed prefix is the input prefix"
        (List.rev !seen = List.filteri (fun i _ -> i < 20) xs))
    [ 1; 4 ]

let test_commit_exception_keeps_prefix () =
  let xs = List.init 100 Fun.id in
  List.iter
    (fun jobs ->
      let seen = ref [] in
      match
        Task_pool.parallel_map_commit ~jobs ~chunk:1
          ~commit:(fun _ x _ -> seen := x :: !seen)
          (fun x -> if x = 41 then raise (Boom x) else x)
          xs
      with
      | _ -> Alcotest.fail "expected the worker exception to re-raise"
      | exception Boom 41 ->
        Helpers.check_true
          (Printf.sprintf "jobs=%d preserves the clean committed prefix" jobs)
          (List.rev !seen = List.filteri (fun i _ -> i < 41) xs))
    [ 1; 4 ]

let test_commit_empty_and_negative () =
  Helpers.check_int "empty input commits nothing" 0
    (Task_pool.parallel_map_commit ~jobs:4 ~chunk:3
       ~commit:(fun _ _ _ -> Alcotest.fail "no commit expected")
       succ []);
  Helpers.check_true "jobs < 0 rejected"
    (try
       ignore
         (Task_pool.parallel_map_commit ~jobs:(-1) ~chunk:1
            ~commit:(fun _ _ _ -> ())
            succ [ 1 ]);
       false
     with Invalid_argument _ -> true)

let suite =
  ( "parallel",
    [
      Alcotest.test_case "jobs=1 spawns nothing" `Quick test_jobs1_spawns_nothing;
      Alcotest.test_case "ordering preserved" `Quick test_ordering;
      Alcotest.test_case "empty list" `Quick test_empty_list;
      Alcotest.test_case "singleton" `Quick test_singleton;
      Alcotest.test_case "shorter than jobs" `Quick test_list_shorter_than_jobs;
      Alcotest.test_case "chunk clamped" `Quick test_chunk_clamped;
      Alcotest.test_case "negative jobs" `Quick test_negative_jobs_rejected;
      Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
      Alcotest.test_case "first exception wins" `Quick test_first_exception_wins;
      Alcotest.test_case "nested call degrades" `Quick test_nested_call_degrades;
      Alcotest.test_case "pool reused" `Quick test_pool_reused;
      Alcotest.test_case "commit ordered" `Quick test_commit_ordered;
      Alcotest.test_case "commit stop prefix" `Quick test_commit_stop_prefix;
      Alcotest.test_case "commit exception prefix" `Quick
        test_commit_exception_keeps_prefix;
      Alcotest.test_case "commit edge cases" `Quick
        test_commit_empty_and_negative;
      Alcotest.test_case "thin_by_cost keep=1" `Quick test_thin_keep1_no_division_by_zero;
      Alcotest.test_case "thin_by_cost bounds" `Quick test_thin_keep_bounds;
      Alcotest.test_case "serial = parallel" `Slow test_run_parallel_matches_serial;
      Alcotest.test_case "serial = parallel (sampled)" `Slow
        test_run_sampled_refine_parallel_matches_serial;
      Alcotest.test_case "Phase I serial = parallel, sharded" `Slow
        test_phase1_parallel_sharded_matches_serial;
    ] )
