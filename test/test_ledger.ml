(* Conex.Ledger: run manifests — construction from an exploration
   result, JSON roundtrip, the canonical/exempt split (byte-identical
   across shards x jobs), the ledger directory, and regression
   detection in diffs. *)

module Ledger = Conex.Ledger
module Explore = Conex.Explore

let config ~jobs ~shards =
  {
    Explore.reduced_config with
    Explore.apex =
      { Mx_apex.Explore.reduced_config with Mx_apex.Explore.max_selected = 2 };
    jobs;
    shards;
  }

let manifest_of ~jobs ~shards w =
  Mx_sim.Eval.clear_cache ();
  Helpers.with_global_metrics (fun () ->
      let r = Explore.run ~config:(config ~jobs ~shards) w in
      Ledger.make ~kind:"test"
        ~config_kv:[ ("workload", "mixed"); ("scale", "3000") ]
        ~sched_kv:
          [ ("jobs", string_of_int jobs); ("shards", string_of_int shards) ]
        ~result:r)

let test_roundtrip () =
  let w = Helpers.mixed_workload ~scale:3000 () in
  let m = manifest_of ~jobs:1 ~shards:1 w in
  match Ledger.of_json (Ledger.to_json m) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok m' ->
    (* every number is printed exactly, so the manifest survives whole *)
    Helpers.check_true "front is non-trivial" (m.Ledger.front <> []);
    if m' <> m then
      Alcotest.failf "roundtrip changed the manifest:\n%s-- read back as:\n%s"
        (Ledger.to_json m) (Ledger.to_json m')

(* The acceptance criterion: same exploration, different schedule —
   identical canonical manifest, identical run id. *)
let test_canonical_across_schedules () =
  let w = Helpers.mixed_workload ~scale:3000 () in
  let a = manifest_of ~jobs:1 ~shards:1 w in
  let b = manifest_of ~jobs:Helpers.test_jobs ~shards:3 w in
  Helpers.check_true "run ids agree" (a.Ledger.run_id = b.Ledger.run_id);
  if Ledger.canonical_json a <> Ledger.canonical_json b then
    Alcotest.failf
      "canonical manifest diverges between schedules:\n-- jobs=1 shards=1:\n\
       %s\n-- jobs=%d shards=3:\n%s"
      (Ledger.canonical_json a) Helpers.test_jobs (Ledger.canonical_json b);
  Helpers.check_true "front is non-trivial" (a.Ledger.front <> []);
  List.iter
    (fun needle ->
      Helpers.check_true
        (Printf.sprintf "canonical has no %s" needle)
        (not (Test_metrics.contains ~needle (Ledger.canonical_json a))))
    [ "created_at"; "wall_seconds"; "\"sched\""; "\"cache\"" ]

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "conex_ledger_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun n -> try Sys.remove (Filename.concat dir n) with _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with _ -> ()
      end)
    (fun () -> f dir)

let test_save_load_list () =
  let w = Helpers.mixed_workload ~scale:3000 () in
  let m = manifest_of ~jobs:1 ~shards:1 w in
  with_temp_dir (fun dir ->
      Helpers.check_true "absent dir lists empty" (Ledger.list ~dir = Ok []);
      let p1 =
        match Ledger.save ~dir m with
        | Ok p -> p
        | Error e -> Alcotest.failf "save failed: %s" e
      in
      (* same manifest again: the name must not collide *)
      let p2 =
        match Ledger.save ~dir m with
        | Ok p -> p
        | Error e -> Alcotest.failf "second save failed: %s" e
      in
      Helpers.check_true "distinct files" (p1 <> p2);
      (match Ledger.load ~path:p1 with
      | Ok m' -> Helpers.check_true "load = save" (m'.Ledger.run_id = m.Ledger.run_id)
      | Error e -> Alcotest.failf "load failed: %s" e);
      match Ledger.list ~dir with
      | Ok entries -> Helpers.check_int "both listed" 2 (List.length entries)
      | Error e -> Alcotest.failf "list failed: %s" e)

(* Synthetic manifests for diff behaviour — no exploration needed. *)
let base =
  {
    Ledger.version = Ledger.schema_version;
    run_id = "0123456789abcdef";
    kind = "test";
    created_at = "2026-08-08T00:00:00Z";
    workload_name = "w";
    workload_fp = "fp";
    config_kv = [ ("scale", "1000") ];
    sched_kv = [ ("jobs", "1") ];
    counters = [];
    n_estimates = 100;
    n_simulations = 10;
    front =
      [
        { Ledger.f_cost = 1.0; f_latency = 5.0; f_energy = 1.0 };
        { Ledger.f_cost = 3.0; f_latency = 2.0; f_energy = 1.0 };
      ];
    interrupted = false;
    wall_seconds = 10.0;
    cache_hits = 80;
    cache_misses = 20;
  }

let test_diff_clean () =
  let d = Ledger.compare_runs base { base with Ledger.wall_seconds = 11.0 } in
  Helpers.check_true "comparable" d.Ledger.comparable;
  Helpers.check_true "no regression" (not (Ledger.regressed d));
  Helpers.check_true "full coverage" (d.Ledger.front_coverage = 1.0)

let test_diff_wall_regression () =
  let d = Ledger.compare_runs base { base with Ledger.wall_seconds = 20.0 } in
  Helpers.check_true "wall regression flagged" d.Ledger.wall_regressed;
  Helpers.check_true "regressed" (Ledger.regressed d);
  Helpers.check_true "render says REGRESSION"
    (Test_metrics.contains ~needle:"REGRESSION" (Ledger.render_diff d))

let test_diff_hit_rate_regression () =
  let d =
    Ledger.compare_runs base
      { base with Ledger.cache_hits = 50; cache_misses = 50 }
  in
  Helpers.check_true "hit-rate regression flagged" d.Ledger.hit_regressed;
  Helpers.check_true "regressed" (Ledger.regressed d)

let test_diff_front_regression () =
  (* B lost the low-latency corner of A's front *)
  let b =
    {
      base with
      Ledger.front = [ { Ledger.f_cost = 1.0; f_latency = 5.0; f_energy = 1.0 } ];
    }
  in
  let d = Ledger.compare_runs base b in
  Helpers.check_true "coverage halves" (d.Ledger.front_coverage = 0.5);
  Helpers.check_true "front regression flagged" d.Ledger.front_regressed;
  (* a better front (dominating point) is not a regression *)
  let better =
    {
      base with
      Ledger.front = [ { Ledger.f_cost = 0.5; f_latency = 1.0; f_energy = 1.0 } ];
    }
  in
  let d = Ledger.compare_runs base better in
  Helpers.check_true "dominating front covers" (d.Ledger.front_coverage = 1.0);
  Helpers.check_true "no regression" (not (Ledger.regressed d))

let test_diff_incomparable () =
  let d =
    Ledger.compare_runs base
      { base with Ledger.workload_fp = "other"; wall_seconds = 100.0 }
  in
  Helpers.check_true "not comparable" (not d.Ledger.comparable);
  Helpers.check_true "thresholds suspended" (not (Ledger.regressed d));
  Helpers.check_true "render warns"
    (Test_metrics.contains ~needle:"not comparable" (Ledger.render_diff d))

(* A version-1 manifest printed its front at 6 significant digits: its
   rounded point sits just below the same point written exactly, which
   would read as a lost front point. *)
let test_diff_across_versions () =
  let point latency =
    { Ledger.f_cost = 1.0; f_latency = latency; f_energy = 1.0 }
  in
  let exact =
    { base with Ledger.front = [ point 2.0000004 ]; wall_seconds = 100.0 }
  in
  let v1 = { base with Ledger.version = 1; front = [ point 2.0 ] } in
  Helpers.check_true "same version: a false front regression"
    (Ledger.compare_runs { v1 with Ledger.version = 2 } exact)
      .Ledger.front_regressed;
  let d = Ledger.compare_runs v1 exact in
  Helpers.check_true "versions 1 and 2 are not comparable"
    (not d.Ledger.comparable);
  Helpers.check_true "thresholds suspended" (not (Ledger.regressed d));
  Helpers.check_true "render names the versions"
    (Test_metrics.contains ~needle:"manifest versions 1 and 2"
       (Ledger.render_diff d));
  Helpers.check_true "version 1 still reads"
    (Result.map (fun m -> m.Ledger.version) (Ledger.of_json (Ledger.to_json v1))
    = Ok 1);
  Helpers.check_true "version 3 is refused"
    (Result.is_error
       (Ledger.of_json (Ledger.to_json { base with Ledger.version = 3 })))

let test_thresholds () =
  let strict =
    { Ledger.max_wall_ratio = 1.01; max_hit_drop = 0.1; min_front_coverage = 1.0 }
  in
  let d =
    Ledger.compare_runs ~thresholds:strict base
      { base with Ledger.wall_seconds = 10.5 }
  in
  Helpers.check_true "strict wall threshold trips" d.Ledger.wall_regressed;
  let lax =
    { Ledger.max_wall_ratio = 10.0; max_hit_drop = 100.0; min_front_coverage = 0.0 }
  in
  let d =
    Ledger.compare_runs ~thresholds:lax
      base
      { base with Ledger.wall_seconds = 90.0; cache_hits = 0; front = [] }
  in
  Helpers.check_true "lax thresholds pass everything" (not (Ledger.regressed d))

let suite =
  ( "ledger",
    [
      Alcotest.test_case "manifest roundtrip" `Slow test_roundtrip;
      Alcotest.test_case "canonical across shards x jobs" `Slow
        test_canonical_across_schedules;
      Alcotest.test_case "save / load / list" `Slow test_save_load_list;
      Alcotest.test_case "diff: clean pair" `Quick test_diff_clean;
      Alcotest.test_case "diff: wall-time regression" `Quick
        test_diff_wall_regression;
      Alcotest.test_case "diff: hit-rate regression" `Quick
        test_diff_hit_rate_regression;
      Alcotest.test_case "diff: front-coverage regression" `Quick
        test_diff_front_regression;
      Alcotest.test_case "diff: incomparable pair" `Quick
        test_diff_incomparable;
      Alcotest.test_case "diff: custom thresholds" `Quick test_thresholds;
      Alcotest.test_case "diff: manifest versions" `Quick
        test_diff_across_versions;
    ] )
