(* The correctness harness itself: runner mechanics (shrinking,
   determinism, reproduction seeds), generator determinism, oracle
   sanity on hand-checked inputs, and the Trace_io / Synthetic edge
   cases (empty trace, single region, maximal region). *)

module Runner = Mx_check.Runner
module Suites = Mx_check.Suites
module Gen = Mx_check.Gen
module Oracle = Mx_check.Oracle
module Prng = Mx_util.Prng
module Workload = Mx_trace.Workload
module Trace = Mx_trace.Trace
module Synthetic = Mx_trace.Synthetic

(* Shared by test_properties and test_fuzz: each property of a harness
   suite becomes its own alcotest case ({!Helpers.prop_case}), so `dune
   runtest` lists and times every property individually and one
   counterexample does not hide the rest of its suite.  Seeds are
   unchanged — {!Runner.case_seed} depends on the property name, not on
   which siblings run alongside it — so a repro line from here replays
   identically under `conex check --suite`. *)
let check_prop_cases ?(count = 150) name =
  match Suites.find name with
  | None ->
    [
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.failf "unknown check suite %S" name);
    ]
  | Some props -> List.map (Helpers.prop_case ~count ~suite:name) props

(* -- runner mechanics --------------------------------------------------- *)

let test_selftest_shrinks () =
  match Suites.find "selftest" with
  | None -> Alcotest.fail "selftest suite is not resolvable by name"
  | Some props -> (
    let r = Runner.run_suite ~master:42 ~count:50 ("selftest", props) in
    match r.Runner.failures with
    | [ f ] ->
      (* sizes cycle 1, 2, ...: size 1 passes (stddev of one sample is
         0 under both oracles), so the first failure is at size 2 and
         scanning smaller sizes cannot shrink it further *)
      Helpers.check_int "minimal failing size" 2 f.Runner.size;
      Helpers.check_true "shrunk-from size is recorded"
        (f.Runner.shrunk_from >= f.Runner.size);
      Helpers.check_true "repro line carries the seed"
        (Test_metrics.contains
           ~needle:(Printf.sprintf "CONEX_CHECK_SEED=%d" f.Runner.seed)
           (Runner.repro ~suite:"selftest" f))
    | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs))

let test_replacement_selftest_fails () =
  (* the hidden broken-oracle suite (true-LRU cache vs a promotion-blind
     FIFO oracle) must be caught by the differential harness, shrink,
     and print a usable reproduction line — the end-to-end proof that a
     broken policy cannot slip through the replacement suite *)
  match Suites.find "replacement-selftest" with
  | None -> Alcotest.fail "replacement-selftest suite is not resolvable"
  | Some props -> (
    let r = Runner.run_suite ~master:42 ~count:50 ("replacement-selftest", props) in
    match r.Runner.failures with
    | [ f ] ->
      Helpers.check_true "divergence message names both sides"
        (Test_metrics.contains ~needle:"cache" f.Runner.message
        && Test_metrics.contains ~needle:"oracle" f.Runner.message);
      Helpers.check_true "counterexample was shrunk"
        (f.Runner.shrunk_from >= f.Runner.size);
      Helpers.check_true "repro line carries the seed"
        (Test_metrics.contains
           ~needle:(Printf.sprintf "CONEX_CHECK_SEED=%d" f.Runner.seed)
           (Runner.repro ~suite:"replacement-selftest" f))
    | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs))

let test_runner_deterministic () =
  match Suites.find "stats" with
  | None -> Alcotest.fail "stats suite missing"
  | Some props ->
    let run () = Runner.run_suite ~master:7 ~count:60 ("stats", props) in
    let a = run () and b = run () in
    Helpers.check_int "same case count" a.Runner.cases b.Runner.cases;
    Helpers.check_int "no failures" 0 (List.length a.Runner.failures);
    Helpers.check_true "identical reports" (a = b)

let test_case_seed_pure () =
  let s i = Runner.case_seed ~master:42 ~prop_name:"p" i in
  Helpers.check_int "pure function of (master, prop, i)" (s 3) (s 3);
  Helpers.check_true "distinct across case indices" (s 0 <> s 1);
  Helpers.check_true "distinct across property names"
    (Runner.case_seed ~master:42 ~prop_name:"q" 0 <> s 0);
  Helpers.check_true "non-negative (usable as a PRNG seed)"
    (List.for_all (fun i -> s i >= 0) [ 0; 1; 2; 3; 4 ])

let test_fixed_mode_skips_shrinking () =
  let p =
    Runner.prop "fails at every size" (fun ~seed:_ ~size ->
        Runner.failf "size %d" size)
  in
  let r = Runner.run_suite ~fixed:(9, 5) ~master:0 ~count:100 ("one", [ p ]) in
  match r.Runner.failures with
  | [ f ] ->
    Helpers.check_int "fixed seed is used" 9 f.Runner.seed;
    Helpers.check_int "fixed size is used" 5 f.Runner.size;
    Helpers.check_int "no shrinking in fixed mode" 5 f.Runner.shrunk_from
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

let test_uncaught_exception_is_a_failure () =
  let p =
    Runner.prop "raises" (fun ~seed:_ ~size:_ -> failwith "boom")
  in
  let r = Runner.run_suite ~master:1 ~count:5 ("one", [ p ]) in
  match r.Runner.failures with
  | [ f ] ->
    Helpers.check_true "message names the exception"
      (Test_metrics.contains ~needle:"boom" f.Runner.message)
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

let test_env_fixed () =
  Unix.putenv "CONEX_CHECK_SEED" "123";
  Unix.putenv "CONEX_CHECK_SIZE" "4";
  Helpers.check_true "seed and size read from the environment"
    (Runner.env_fixed () = Some (123, 4));
  Unix.putenv "CONEX_CHECK_SIZE" "junk";
  Helpers.check_true "unparsable size falls back to 1"
    (Runner.env_fixed () = Some (123, 1));
  Unix.putenv "CONEX_CHECK_SEED" "junk";
  Helpers.check_true "unparsable seed disables the override"
    (Runner.env_fixed () = None)

(* -- generator determinism ---------------------------------------------- *)

let test_generators_deterministic () =
  let fp ~seed ~size =
    Workload.fingerprint (Gen.workload (Prng.create ~seed) ~size)
  in
  Helpers.check_true "same (seed, size) regenerates the same workload"
    (fp ~seed:11 ~size:3 = fp ~seed:11 ~size:3);
  Helpers.check_true "different seeds diverge"
    (fp ~seed:11 ~size:3 <> fp ~seed:12 ~size:3);
  let chans ~seed = Gen.channels (Prng.create ~seed) ~size:4 in
  Helpers.check_true "channel generator is deterministic"
    (chans ~seed:5 = chans ~seed:5)

(* -- oracle sanity on hand-checked inputs -------------------------------- *)

let test_oracle_percentile_known () =
  let xs = [ 4.0; 1.0; 3.0; 2.0 ] in
  (* nearest-rank over the sorted list [1;2;3;4] *)
  List.iter
    (fun (p, want) ->
      Helpers.check_true
        (Printf.sprintf "oracle percentile %.0f" p)
        (Oracle.percentile xs ~p = Some want);
      Helpers.check_true
        (Printf.sprintf "stats percentile %.0f agrees" p)
        (Mx_util.Stats.percentile xs ~p = Some want))
    [ (0.0, 1.0); (50.0, 2.0); (75.0, 3.0); (100.0, 4.0) ]

let test_oracle_pareto_known () =
  let pts = [ [| 1.0; 3.0 |]; [| 2.0; 2.0 |]; [| 3.0; 3.0 |]; [| 1.0; 3.0 |] ] in
  let axes = [ (fun (p : float array) -> p.(0)); (fun p -> p.(1)) ] in
  (* (3,3) is dominated by (2,2); the duplicate (1,3) points survive *)
  Helpers.check_int "oracle front size" 3
    (List.length (Oracle.pareto_front ~axes pts));
  Helpers.check_true "production front agrees"
    (Mx_util.Pareto.front ~axes pts = Oracle.pareto_front ~axes pts)

(* -- Trace_io / Synthetic edge cases ------------------------------------- *)

let roundtrip w = Mx_trace.Trace_io.of_string (Mx_trace.Trace_io.to_string w)

let test_empty_trace_roundtrip () =
  let e = Workload.Emitter.create () in
  Workload.Emitter.ops e 25;
  let w = Workload.Emitter.finish e ~name:"empty" ~regions:[] in
  Helpers.check_int "no accesses" 0 (Trace.length w.Workload.trace);
  let w2 = roundtrip w in
  Helpers.check_true "empty workload survives the round-trip"
    (Workload.fingerprint w2 = Workload.fingerprint w);
  Helpers.check_int "cpu_ops preserved" 25 w2.Workload.cpu_ops

let test_single_region_roundtrip () =
  let w =
    Synthetic.generate ~name:"one" ~scale:300 ~seed:3
      ~specs:[ Synthetic.spec ~name:"only" ~elems:64 Mx_trace.Region.Stream ]
  in
  Helpers.check_int "one region" 1 (List.length w.Workload.regions);
  Helpers.check_true "single-region workload survives the round-trip"
    (Workload.fingerprint (roundtrip w) = Workload.fingerprint w)

let test_max_size_region_roundtrip () =
  (* one very large region (1 MiB of 4-byte elements) next to a tiny one *)
  let w =
    Synthetic.generate ~name:"big" ~scale:400 ~seed:5
      ~specs:
        [
          Synthetic.spec ~name:"huge" ~elems:262_144
            Mx_trace.Region.Random_access;
          Synthetic.spec ~name:"tiny" ~elems:16 Mx_trace.Region.Indexed;
        ]
  in
  let huge = Workload.region_by_name w "huge" in
  Helpers.check_int "region size is elems * elem_size" (262_144 * 4)
    huge.Mx_trace.Region.size;
  Helpers.check_true "large-region workload survives the round-trip"
    (Workload.fingerprint (roundtrip w) = Workload.fingerprint w)

let test_synthetic_rejects_degenerate_inputs () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Helpers.check_true "empty spec list is rejected"
    (raises (fun () ->
         ignore (Synthetic.generate ~name:"x" ~specs:[] ~scale:10 ~seed:0)));
  Helpers.check_true "non-positive scale is rejected"
    (raises (fun () ->
         ignore
           (Synthetic.generate ~name:"x"
              ~specs:[ Synthetic.spec ~name:"r" ~elems:8 Mx_trace.Region.Stream ]
              ~scale:0 ~seed:0)))

let suite =
  ( "check-harness",
    [
      Alcotest.test_case "selftest shrinks to size 2" `Quick
        test_selftest_shrinks;
      Alcotest.test_case "replacement selftest caught" `Quick
        test_replacement_selftest_fails;
      Alcotest.test_case "runner deterministic" `Quick
        test_runner_deterministic;
      Alcotest.test_case "case_seed pure" `Quick test_case_seed_pure;
      Alcotest.test_case "fixed mode skips shrinking" `Quick
        test_fixed_mode_skips_shrinking;
      Alcotest.test_case "uncaught exception becomes failure" `Quick
        test_uncaught_exception_is_a_failure;
      Alcotest.test_case "env_fixed parsing" `Quick test_env_fixed;
      Alcotest.test_case "generators deterministic" `Quick
        test_generators_deterministic;
      Alcotest.test_case "oracle percentile (known)" `Quick
        test_oracle_percentile_known;
      Alcotest.test_case "oracle pareto (known)" `Quick
        test_oracle_pareto_known;
      Alcotest.test_case "empty-trace round-trip" `Quick
        test_empty_trace_roundtrip;
      Alcotest.test_case "single-region round-trip" `Quick
        test_single_region_roundtrip;
      Alcotest.test_case "max-size-region round-trip" `Quick
        test_max_size_region_roundtrip;
      Alcotest.test_case "synthetic rejects degenerate inputs" `Quick
        test_synthetic_rejects_degenerate_inputs;
    ] )
