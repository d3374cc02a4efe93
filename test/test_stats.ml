module Stats = Mx_util.Stats
module Runner = Mx_check.Runner

let test_running_empty () =
  let r = Stats.Running.create () in
  Helpers.check_int "count" 0 (Stats.Running.count r);
  Helpers.check_float "mean" 0.0 (Stats.Running.mean r);
  Helpers.check_float "variance" 0.0 (Stats.Running.variance r)

let test_running_single () =
  let r = Stats.Running.create () in
  Stats.Running.add r 4.0;
  Helpers.check_float "mean" 4.0 (Stats.Running.mean r);
  Helpers.check_float "variance of one" 0.0 (Stats.Running.variance r);
  Helpers.check_float "min" 4.0 (Stats.Running.min r);
  Helpers.check_float "max" 4.0 (Stats.Running.max r)

let test_running_known () =
  let r = Stats.Running.create () in
  List.iter (Stats.Running.add r) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Helpers.check_float "mean" 5.0 (Stats.Running.mean r);
  Alcotest.(check (float 1e-6)) "population variance" 4.0 (Stats.Running.variance r);
  Alcotest.(check (float 1e-6)) "stddev" 2.0 (Stats.Running.stddev r);
  Helpers.check_float "min" 2.0 (Stats.Running.min r);
  Helpers.check_float "max" 9.0 (Stats.Running.max r)

let test_mean () =
  Helpers.check_float "empty" 0.0 (Stats.mean []);
  Helpers.check_float "values" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])

let check_percentile msg expect xs p =
  Alcotest.(check (option (float 1e-9))) msg expect (Stats.percentile xs ~p)

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_percentile "p50" (Some 50.0) xs 50.0;
  check_percentile "p100" (Some 100.0) xs 100.0;
  check_percentile "p1" (Some 1.0) xs 1.0

let test_percentile_total () =
  (* regression: used to raise on the empty list *)
  check_percentile "empty is None" None [] 50.0;
  check_percentile "singleton p0" (Some 7.0) [ 7.0 ] 0.0;
  check_percentile "singleton p50" (Some 7.0) [ 7.0 ] 50.0;
  check_percentile "singleton p100" (Some 7.0) [ 7.0 ] 100.0

let test_stddev_total () =
  Helpers.check_float "empty" 0.0 (Stats.stddev []);
  Helpers.check_float "singleton" 0.0 (Stats.stddev [ 3.0 ]);
  Alcotest.(check (float 1e-6)) "known population stddev" 2.0
    (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_spearman () =
  let check msg expect xs ys =
    Alcotest.(check (option (float 1e-9))) msg expect (Stats.spearman xs ys)
  in
  check "monotone" (Some 1.0) [ 1.0; 2.0; 3.0 ] [ 10.0; 20.0; 90.0 ];
  check "antitone" (Some (-1.0)) [ 1.0; 2.0; 3.0 ] [ 9.0; 5.0; 1.0 ];
  check "length mismatch" None [ 1.0 ] [ 1.0; 2.0 ];
  check "too short" None [ 1.0 ] [ 2.0 ];
  check "constant side undefined" None [ 1.0; 2.0; 3.0 ] [ 5.0; 5.0; 5.0 ];
  (* ties get fractional ranks; [1;2;2;3] vs itself is still exactly 1 *)
  check "ties" (Some 1.0) [ 1.0; 2.0; 2.0; 3.0 ] [ 1.0; 2.0; 2.0; 3.0 ]

let test_geometric_mean () =
  Alcotest.(check (float 1e-9)) "gm" 4.0 (Stats.geometric_mean [ 2.0; 8.0 ]);
  Helpers.check_float "empty gm" 0.0 (Stats.geometric_mean [])

let test_ratio_pct () =
  Helpers.check_float "improvement" 50.0 (Stats.ratio_pct 5.0 10.0);
  Helpers.check_float "zero denominator" 0.0 (Stats.ratio_pct 5.0 0.0);
  Helpers.check_float "regression negative" (-100.0) (Stats.ratio_pct 10.0 5.0)

(* [size] values in [0, 1000), one case per length 1..50 *)
let prop_running_mean_matches_list_mean =
  Runner.prop ~max_size:50 "running mean equals list mean"
    (fun ~seed ~size ->
      let g = Mx_util.Prng.create ~seed in
      let xs = List.init size (fun _ -> Mx_util.Prng.float g *. 1000.0) in
      let r = Stats.Running.create () in
      List.iter (Stats.Running.add r) xs;
      let running = Stats.Running.mean r and mean = Stats.mean xs in
      Runner.check
        (Float.abs (running -. mean) < 1e-6)
        "running %.17g, list %.17g over %d values" running mean size)

let suite =
  ( "stats",
    [
      Alcotest.test_case "running empty" `Quick test_running_empty;
      Alcotest.test_case "running single" `Quick test_running_single;
      Alcotest.test_case "running known" `Quick test_running_known;
      Alcotest.test_case "mean" `Quick test_mean;
      Alcotest.test_case "percentile" `Quick test_percentile;
      Alcotest.test_case "percentile total" `Quick test_percentile_total;
      Alcotest.test_case "stddev total" `Quick test_stddev_total;
      Alcotest.test_case "spearman" `Quick test_spearman;
      Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
      Alcotest.test_case "ratio pct" `Quick test_ratio_pct;
      Helpers.prop_case prop_running_mean_matches_list_mean;
    ] )
