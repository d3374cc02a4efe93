module Prng = Mx_util.Prng
module Runner = Mx_check.Runner

let test_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Helpers.check_true "same stream" (Prng.next_int64 a = Prng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let distinct = ref false in
  for _ = 1 to 16 do
    if Prng.next_int64 a <> Prng.next_int64 b then distinct := true
  done;
  Helpers.check_true "different seeds diverge" !distinct

let test_copy_independent () =
  let a = Prng.create ~seed:9 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Helpers.check_true "copy continues identically"
    (Prng.next_int64 a = Prng.next_int64 b);
  ignore (Prng.next_int64 a);
  (* advancing a does not advance b *)
  let a2 = Prng.next_int64 a and b2 = Prng.next_int64 b in
  Helpers.check_true "copies are independent" (a2 <> b2)

let test_split_independent () =
  let g = Prng.create ~seed:5 in
  let h = Prng.split g in
  let seen_equal = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 g = Prng.next_int64 h then incr seen_equal
  done;
  Helpers.check_int "split streams do not mirror" 0 !seen_equal

let test_int_bounds () =
  let g = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int g ~bound:17 in
    Helpers.check_true "0 <= v < bound" (v >= 0 && v < 17)
  done

let test_int_rejects_bad_bound () =
  let g = Prng.create ~seed:7 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g ~bound:0))

let test_int_in_inclusive () =
  let g = Prng.create ~seed:3 in
  let lo_seen = ref false and hi_seen = ref false in
  for _ = 1 to 2000 do
    let v = Prng.int_in g ~lo:2 ~hi:5 in
    Helpers.check_true "within [2,5]" (v >= 2 && v <= 5);
    if v = 2 then lo_seen := true;
    if v = 5 then hi_seen := true
  done;
  Helpers.check_true "lo reachable" !lo_seen;
  Helpers.check_true "hi reachable" !hi_seen

let test_float_unit_interval () =
  let g = Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Prng.float g in
    Helpers.check_true "in [0,1)" (v >= 0.0 && v < 1.0)
  done

let test_float_mean () =
  let g = Prng.create ~seed:13 in
  let n = 20000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.float g
  done;
  let mean = !acc /. float_of_int n in
  Helpers.check_true "mean near 0.5" (Float.abs (mean -. 0.5) < 0.02)

let test_bool_extremes () =
  let g = Prng.create ~seed:17 in
  for _ = 1 to 50 do
    Helpers.check_true "p=1 always true" (Prng.bool g ~p:1.0);
    Helpers.check_true "p=0 always false" (not (Prng.bool g ~p:0.0))
  done

let test_shuffle_permutation () =
  let g = Prng.create ~seed:19 in
  let a = Array.init 100 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation"
    (Array.init 100 (fun i -> i))
    sorted

let test_pick_singleton () =
  let g = Prng.create ~seed:23 in
  Helpers.check_int "pick of singleton" 7 (Prng.pick g [| 7 |])

let test_pick_empty_rejected () =
  let g = Prng.create ~seed:23 in
  Alcotest.check_raises "empty pick" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Prng.pick g [||]))

let test_zipf_bounds_and_skew () =
  let g = Prng.create ~seed:29 in
  let n = 50 in
  let counts = Array.make n 0 in
  for _ = 1 to 20000 do
    let v = Prng.zipf g ~n ~s:1.2 in
    Helpers.check_true "rank in range" (v >= 0 && v < n);
    counts.(v) <- counts.(v) + 1
  done;
  Helpers.check_true "rank 0 dominates rank 10" (counts.(0) > counts.(10));
  Helpers.check_true "rank 0 dominates last rank"
    (counts.(0) > 10 * max 1 counts.(n - 1))

let test_geometric_mean () =
  let g = Prng.create ~seed:31 in
  let n = 20000 and p = 0.25 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Prng.geometric g ~p
  done;
  let mean = float_of_int !acc /. float_of_int n in
  (* expected (1-p)/p = 3 *)
  Helpers.check_true "geometric mean near 3" (Float.abs (mean -. 3.0) < 0.25)

let test_gaussian_moments () =
  let g = Prng.create ~seed:37 in
  let n = 20000 in
  let acc = ref 0.0 and acc2 = ref 0.0 in
  for _ = 1 to n do
    let v = Prng.gaussian g ~mu:5.0 ~sigma:2.0 in
    acc := !acc +. v;
    acc2 := !acc2 +. (v *. v)
  done;
  let mean = !acc /. float_of_int n in
  let var = (!acc2 /. float_of_int n) -. (mean *. mean) in
  Helpers.check_true "gaussian mean" (Float.abs (mean -. 5.0) < 0.1);
  Helpers.check_true "gaussian variance" (Float.abs (var -. 4.0) < 0.3)

(* each case draws a generator seed in [0, 100) and a bound in
   [1, hi], then checks one draw under that bound *)
let bound_prop name ~hi draw =
  Runner.prop name (fun ~seed ~size:_ ->
      let g = Prng.create ~seed in
      let seed = Prng.int g ~bound:100 in
      let bound = Prng.int_in g ~lo:1 ~hi in
      let v = draw (Prng.create ~seed) bound in
      Runner.check (v >= 0 && v < bound) "seed %d, bound %d: drew %d" seed
        bound v)

let prop_int_in_range =
  bound_prop "int bound respected for arbitrary bounds" ~hi:10_000
    (fun g bound -> Prng.int g ~bound)

let prop_zipf_in_range =
  bound_prop "zipf rank always within [0,n)" ~hi:500 (fun g n ->
      Prng.zipf g ~n ~s:1.1)

let suite =
  ( "prng",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
      Alcotest.test_case "copy independence" `Quick test_copy_independent;
      Alcotest.test_case "split independence" `Quick test_split_independent;
      Alcotest.test_case "int bounds" `Quick test_int_bounds;
      Alcotest.test_case "int rejects bad bound" `Quick test_int_rejects_bad_bound;
      Alcotest.test_case "int_in inclusive" `Quick test_int_in_inclusive;
      Alcotest.test_case "float in [0,1)" `Quick test_float_unit_interval;
      Alcotest.test_case "float mean" `Quick test_float_mean;
      Alcotest.test_case "bool extremes" `Quick test_bool_extremes;
      Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
      Alcotest.test_case "pick singleton" `Quick test_pick_singleton;
      Alcotest.test_case "pick empty rejected" `Quick test_pick_empty_rejected;
      Alcotest.test_case "zipf bounds and skew" `Quick test_zipf_bounds_and_skew;
      Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
      Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
      Helpers.prop_case prop_int_in_range;
      Helpers.prop_case prop_zipf_in_range;
    ] )
