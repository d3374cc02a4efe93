module Pareto = Mx_util.Pareto
module Runner = Mx_check.Runner

type pt = { x : float; y : float; z : float }

let px p = p.x
let py p = p.y
let pz p = p.z
let mk x y z = { x; y; z }

let test_dominates_basic () =
  let a = mk 1.0 1.0 1.0 and b = mk 2.0 2.0 2.0 in
  Helpers.check_true "a dominates b" (Pareto.dominates ~axes:[ px; py; pz ] a b);
  Helpers.check_true "b does not dominate a"
    (not (Pareto.dominates ~axes:[ px; py; pz ] b a))

let test_dominates_requires_strict () =
  let a = mk 1.0 1.0 1.0 in
  Helpers.check_true "no self-domination"
    (not (Pareto.dominates ~axes:[ px; py; pz ] a (mk 1.0 1.0 1.0)))

let test_dominates_incomparable () =
  let a = mk 1.0 2.0 0.0 and b = mk 2.0 1.0 0.0 in
  Helpers.check_true "incomparable a b" (not (Pareto.dominates ~axes:[ px; py ] a b));
  Helpers.check_true "incomparable b a" (not (Pareto.dominates ~axes:[ px; py ] b a))

let test_front_simple () =
  let pts = [ mk 1.0 3.0 0.0; mk 2.0 2.0 0.0; mk 3.0 1.0 0.0; mk 3.0 3.0 0.0 ] in
  let f = Pareto.front ~axes:[ px; py ] pts in
  Helpers.check_int "front size" 3 (List.length f);
  Helpers.check_true "dominated point removed"
    (not (List.exists (fun p -> p.x = 3.0 && p.y = 3.0) f))

let test_front_keeps_duplicates () =
  let pts = [ mk 1.0 1.0 0.0; mk 1.0 1.0 0.0 ] in
  Helpers.check_int "duplicates kept" 2
    (List.length (Pareto.front ~axes:[ px; py ] pts))

let test_front_empty () =
  Helpers.check_int "empty front" 0 (List.length (Pareto.front ~axes:[ px ] []))

let test_front2_sorted () =
  let pts = [ mk 3.0 1.0 0.0; mk 1.0 3.0 0.0; mk 2.0 2.0 0.0; mk 2.5 2.5 0.0 ] in
  let f = Pareto.front2 ~x:px ~y:py pts in
  Helpers.check_int "front2 size" 3 (List.length f);
  let xs = List.map px f in
  Helpers.check_true "sorted by x" (xs = List.sort compare xs)

let test_front2_equals_front () =
  let pts =
    List.init 50 (fun i ->
        let f = float_of_int i in
        mk (Float.rem (f *. 7.3) 11.0) (Float.rem (f *. 3.7) 13.0) 0.0)
  in
  let a =
    Pareto.front2 ~x:px ~y:py pts |> List.map (fun p -> (p.x, p.y))
  and b =
    Pareto.front ~axes:[ px; py ] pts
    |> List.map (fun p -> (p.x, p.y))
    |> List.sort compare
  in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "front2 agrees with generic front" (List.sort compare a) b

let test_sort_by () =
  let pts = [ mk 3.0 0.0 0.0; mk 1.0 0.0 0.0; mk 2.0 0.0 0.0 ] in
  Alcotest.(check (list (float 1e-9)))
    "ascending" [ 1.0; 2.0; 3.0 ]
    (List.map px (Pareto.sort_by px pts))

let test_coverage_full () =
  let ref_pts = [ mk 1.0 3.0 0.0; mk 2.0 2.0 0.0 ] in
  let r =
    Pareto.Coverage.eval ~axes:[ px; py ]
      ~equal:(fun a b -> a.x = b.x && a.y = b.y)
      ~reference:ref_pts ~explored:ref_pts
  in
  Helpers.check_float "100% coverage" 100.0 r.Pareto.Coverage.coverage_pct;
  Helpers.check_float "zero distance" 0.0 r.Pareto.Coverage.avg_dist_pct.(0)

let test_coverage_partial () =
  let ref_pts = [ mk 10.0 30.0 0.0; mk 20.0 20.0 0.0 ] in
  let explored = [ mk 10.0 30.0 0.0; mk 22.0 20.0 0.0 ] in
  let r =
    Pareto.Coverage.eval ~axes:[ px; py ]
      ~equal:(fun a b -> a.x = b.x && a.y = b.y)
      ~reference:ref_pts ~explored
  in
  Helpers.check_float "50% coverage" 50.0 r.Pareto.Coverage.coverage_pct;
  (* nearest to (20,20) is (22,20): 10% off on x, 0% on y *)
  Helpers.check_float "x distance 10%" 10.0 r.Pareto.Coverage.avg_dist_pct.(0);
  Helpers.check_float "y distance 0%" 0.0 r.Pareto.Coverage.avg_dist_pct.(1)

let test_coverage_empty_reference () =
  let r =
    Pareto.Coverage.eval ~axes:[ px ]
      ~equal:(fun _ _ -> false)
      ~reference:[] ~explored:[ mk 1.0 0.0 0.0 ]
  in
  Helpers.check_float "empty reference = 100%" 100.0 r.Pareto.Coverage.coverage_pct

let test_coverage_empty_explored () =
  (* an empty exploration covers nothing: 0% and zero distances, never
     an exception (the distance average has no sample to draw from) *)
  let ref_pts = [ mk 1.0 3.0 0.0; mk 2.0 2.0 0.0 ] in
  let r =
    Pareto.Coverage.eval ~axes:[ px; py ]
      ~equal:(fun a b -> a.x = b.x && a.y = b.y)
      ~reference:ref_pts ~explored:[]
  in
  Helpers.check_float "0% coverage" 0.0 r.Pareto.Coverage.coverage_pct;
  Helpers.check_float "x distance 0" 0.0 r.Pareto.Coverage.avg_dist_pct.(0);
  Helpers.check_float "y distance 0" 0.0 r.Pareto.Coverage.avg_dist_pct.(1)

(* -- archive -------------------------------------------------------------- *)

let expect_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")

let test_archive_create_validates () =
  expect_invalid "empty axes" (fun () ->
      Pareto.Archive.create ~axes:([] : (pt -> float) list) ());
  expect_invalid "negative eps" (fun () ->
      Pareto.Archive.create ~axes:[ px ] ~eps:(-0.1) ());
  expect_invalid "zero capacity" (fun () ->
      Pareto.Archive.create ~axes:[ px ] ~capacity:0 ())

(* The archive counts nothing; its caller tallies the outcomes. *)
type tally = { mutable added : int; mutable rejected : int;
               mutable removed : int; mutable evicted : int }

let tallied a =
  let t = { added = 0; rejected = 0; removed = 0; evicted = 0 } in
  ( t,
    fun p ->
      let o = Pareto.Archive.insert a p in
      (match o with
      | Pareto.Archive.Added { removed; evicted } ->
        t.added <- t.added + 1;
        t.removed <- t.removed + List.length removed;
        t.evicted <- t.evicted + List.length evicted
      | Pareto.Archive.Rejected -> t.rejected <- t.rejected + 1);
      o )

let test_archive_insert_basics () =
  let a = Pareto.Archive.create ~axes:[ px; py ] () in
  let s, insert = tallied a in
  (match insert (mk 2.0 2.0 0.0) with
  | Pareto.Archive.Added { removed = []; evicted = [] } -> ()
  | _ -> Alcotest.fail "first insert should add cleanly");
  (match insert (mk 3.0 3.0 0.0) with
  | Pareto.Archive.Rejected -> ()
  | _ -> Alcotest.fail "dominated insert should be rejected");
  (match insert (mk 1.0 1.0 0.0) with
  | Pareto.Archive.Added { removed = [ r ]; evicted = [] } ->
    Helpers.check_true "displaced the dominated member"
      (r.x = 2.0 && r.y = 2.0)
  | _ -> Alcotest.fail "dominating insert should displace the member");
  Helpers.check_int "one member" 1 (Pareto.Archive.size a);
  Helpers.check_int "inserts" 2 s.added;
  Helpers.check_int "rejects" 1 s.rejected;
  Helpers.check_int "removed" 1 s.removed

let test_archive_front_matches_front2 () =
  let pts =
    List.init 60 (fun i ->
        let f = float_of_int i in
        mk (Float.rem (f *. 7.3) 11.0) (Float.rem (f *. 3.7) 13.0) 0.0)
  in
  let a = Pareto.Archive.of_list ~axes:[ px; py ] pts in
  Alcotest.(check (list (pair (float 1e-12) (float 1e-12))))
    "archive front = front2"
    (List.map (fun p -> (p.x, p.y)) (Pareto.front2 ~x:px ~y:py pts))
    (List.map (fun p -> (p.x, p.y)) (Pareto.Archive.front a))

let test_archive_eps_thins () =
  (* at eps = 0.5, member (1,1) covers any point it is within 1.5x of
     on both axes *)
  let a = Pareto.Archive.create ~axes:[ px; py ] ~eps:0.5 () in
  ignore (Pareto.Archive.insert a (mk 1.0 1.0 0.0));
  (match Pareto.Archive.insert a (mk 1.4 1.4 0.0) with
  | Pareto.Archive.Rejected -> ()
  | _ -> Alcotest.fail "eps-dominated point should be rejected");
  (match Pareto.Archive.insert a (mk 0.5 2.0 0.0) with
  | Pareto.Archive.Added _ -> ()
  | _ -> Alcotest.fail "point outside the eps box should be added");
  Helpers.check_int "two members" 2 (Pareto.Archive.size a)

let test_archive_capacity_evicts_crowded () =
  let a = Pareto.Archive.create ~axes:[ px; py ] ~capacity:3 () in
  let s, insert = tallied a in
  (* four mutually non-dominated points; the crowded interior one goes,
     never an extreme *)
  List.iter
    (fun p -> ignore (insert p))
    [ mk 0.0 3.0 0.0; mk 1.0 2.0 0.0; mk 1.1 1.9 0.0; mk 3.0 0.0 0.0 ];
  Helpers.check_int "capacity respected" 3 (Pareto.Archive.size a);
  let f = Pareto.Archive.front a in
  Helpers.check_true "extremes survive"
    (List.exists (fun p -> p.x = 0.0) f && List.exists (fun p -> p.x = 3.0) f);
  Helpers.check_int "one eviction counted" 1 s.evicted

(* [size] points with both coordinates in [0, 100), one case per
   length 1..40 and their front *)
let front_prop name holds =
  Runner.prop ~max_size:40 name (fun ~seed ~size ->
      let g = Mx_util.Prng.create ~seed in
      let xs = Mx_check.Gen.floats g ~size in
      let ys = Mx_check.Gen.floats g ~size in
      let pts = List.map2 (fun x y -> mk x y 0.0) xs ys in
      let f = Pareto.front ~axes:[ px; py ] pts in
      match holds pts f with
      | None -> Runner.Pass
      | Some p -> Runner.failf "(%g, %g) of %d points" p.x p.y size)

(* the front member some input dominates, if any *)
let prop_front_members_not_dominated =
  front_prop "no front member is dominated by any input" (fun pts f ->
      List.find_opt
        (fun m ->
          List.exists (fun p -> Pareto.dominates ~axes:[ px; py ] p m) pts)
        f)

(* the input neither on the front nor dominated by it, if any *)
let prop_front_covers_inputs =
  front_prop "every input is dominated by or on the front" (fun pts f ->
      List.find_opt
        (fun p ->
          not
            (List.exists
               (fun m ->
                 (m.x = p.x && m.y = p.y)
                 || Pareto.dominates ~axes:[ px; py ] m p)
               f))
        pts)

let suite =
  ( "pareto",
    [
      Alcotest.test_case "dominates basic" `Quick test_dominates_basic;
      Alcotest.test_case "dominates strict" `Quick test_dominates_requires_strict;
      Alcotest.test_case "incomparable" `Quick test_dominates_incomparable;
      Alcotest.test_case "front simple" `Quick test_front_simple;
      Alcotest.test_case "front duplicates" `Quick test_front_keeps_duplicates;
      Alcotest.test_case "front empty" `Quick test_front_empty;
      Alcotest.test_case "front2 sorted" `Quick test_front2_sorted;
      Alcotest.test_case "front2 = front" `Quick test_front2_equals_front;
      Alcotest.test_case "sort_by" `Quick test_sort_by;
      Alcotest.test_case "coverage full" `Quick test_coverage_full;
      Alcotest.test_case "coverage partial" `Quick test_coverage_partial;
      Alcotest.test_case "coverage empty ref" `Quick test_coverage_empty_reference;
      Alcotest.test_case "coverage empty explored" `Quick
        test_coverage_empty_explored;
      Alcotest.test_case "archive create validates" `Quick
        test_archive_create_validates;
      Alcotest.test_case "archive insert basics" `Quick
        test_archive_insert_basics;
      Alcotest.test_case "archive front = front2" `Quick
        test_archive_front_matches_front2;
      Alcotest.test_case "archive eps thins" `Quick test_archive_eps_thins;
      Alcotest.test_case "archive capacity evicts" `Quick
        test_archive_capacity_evicts_crowded;
      Helpers.prop_case prop_front_members_not_dominated;
      Helpers.prop_case prop_front_covers_inputs;
    ] )
