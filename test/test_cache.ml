module Cache = Mx_mem.Cache
module Params = Mx_mem.Params
module Replacement = Mx_mem.Replacement
module Runner = Mx_check.Runner

let mk ?(size = 1024) ?(line = 16) ?(assoc = 2)
    ?(policy = Params.default_policy) () =
  Cache.create
    { Params.c_size = size; c_line = line; c_assoc = assoc; c_latency = 1;
      c_policy = policy }

let test_cold_miss_then_hit () =
  let c = mk () in
  let r1 = Cache.access c ~addr:0x1000 ~write:false in
  Helpers.check_true "cold miss" (not r1.Cache.hit);
  Helpers.check_true "fill on miss" r1.Cache.fill;
  let r2 = Cache.access c ~addr:0x1004 ~write:false in
  Helpers.check_true "same line hits" r2.Cache.hit

let test_line_granularity () =
  let c = mk ~line:16 () in
  ignore (Cache.access c ~addr:0x1000 ~write:false);
  Helpers.check_true "last byte of line hits"
    (Cache.access c ~addr:0x100F ~write:false).Cache.hit;
  Helpers.check_true "next line misses"
    (not (Cache.access c ~addr:0x1010 ~write:false).Cache.hit)

let test_lru_eviction () =
  (* 2-way set: fill both ways, touch the first, insert a third: the
     second (least recently used) must be evicted *)
  let c = mk ~size:1024 ~line:16 ~assoc:2 () in
  let sets = 1024 / 16 / 2 in
  let stride = sets * 16 in
  let a0 = 0 and a1 = stride and a2 = 2 * stride in
  ignore (Cache.access c ~addr:a0 ~write:false);
  ignore (Cache.access c ~addr:a1 ~write:false);
  ignore (Cache.access c ~addr:a0 ~write:false); (* refresh a0 *)
  ignore (Cache.access c ~addr:a2 ~write:false); (* evicts a1 *)
  Helpers.check_true "a0 survives" (Cache.access c ~addr:a0 ~write:false).Cache.hit;
  Helpers.check_true "a1 evicted"
    (not (Cache.access c ~addr:a1 ~write:false).Cache.hit)

let test_writeback_only_when_dirty () =
  let c = mk ~size:256 ~line:16 ~assoc:1 () in
  let sets = 256 / 16 in
  let stride = sets * 16 in
  (* clean line evicted: no writeback *)
  ignore (Cache.access c ~addr:0 ~write:false);
  let r = Cache.access c ~addr:stride ~write:false in
  Helpers.check_true "clean eviction, no writeback" (not r.Cache.writeback);
  (* dirty line evicted: writeback *)
  ignore (Cache.access c ~addr:0 ~write:true);
  let r = Cache.access c ~addr:stride ~write:false in
  Helpers.check_true "dirty eviction writes back" r.Cache.writeback

(* The kernel's int codes, on the direct-mapped geometry above: global
   line 0 then line 16 (one stride on) share set 0. *)
let test_lookup_codes () =
  let c = mk ~size:256 ~line:16 ~assoc:1 () in
  let stride = 256 in
  Helpers.check_int "cold miss" Cache.cold_fill
    (Cache.lookup c ~addr:0x4 ~write:true);
  Helpers.check_int "hit" Cache.hit (Cache.lookup c ~addr:0x8 ~write:false);
  let code = Cache.lookup c ~addr:stride ~write:false in
  Helpers.check_int "evicts line 0" 0 (Cache.evicted code);
  Helpers.check_true "dirty line 0 is written back" (Cache.dirty code);
  let code = Cache.lookup c ~addr:0 ~write:false in
  Helpers.check_int "evicts line 16" 16 (Cache.evicted code);
  Helpers.check_true "clean line 16 is not" (not (Cache.dirty code));
  Helpers.check_int "no line behind a hit" (-1) (Cache.evicted Cache.hit);
  Helpers.check_true "nor a write-back" (not (Cache.dirty Cache.cold_fill));
  match Cache.access c ~addr:(-16) ~write:false with
  | _ -> Alcotest.fail "a negative address was looked up"
  | exception Invalid_argument _ -> ()

let test_write_allocate () =
  let c = mk () in
  let r = Cache.access c ~addr:0x42 ~write:true in
  Helpers.check_true "write miss fills" r.Cache.fill;
  Helpers.check_true "write then read hits"
    (Cache.access c ~addr:0x42 ~write:false).Cache.hit

(* The cache counts nothing; a caller counts the misses it reads. *)
let count_miss misses c ~addr =
  if not (Cache.access c ~addr ~write:false).Cache.hit then incr misses

let test_counters () =
  let c = mk () and misses = ref 0 in
  List.iter (fun addr -> count_miss misses c ~addr) [ 0; 0; 4096 ];
  Helpers.check_int "misses" 2 !misses

let test_bigger_cache_fewer_misses () =
  let small = mk ~size:512 () and big = mk ~size:8192 () in
  let small_misses = ref 0 and big_misses = ref 0 in
  let g = Mx_util.Prng.create ~seed:99 in
  for _ = 1 to 5000 do
    let addr = Mx_util.Prng.zipf g ~n:512 ~s:1.0 * 16 in
    count_miss small_misses small ~addr;
    count_miss big_misses big ~addr
  done;
  Helpers.check_true "monotone in size" (!big_misses <= !small_misses)

let test_higher_assoc_no_conflicts () =
  (* k+1 conflicting lines thrash a k-way set but fit in 2k ways *)
  let a2 = mk ~size:1024 ~line:16 ~assoc:2 ()
  and a4 = mk ~size:1024 ~line:16 ~assoc:4 () in
  let sets2 = 1024 / 16 / 2 in
  let addrs = List.init 3 (fun i -> i * sets2 * 16) in
  let a2_misses = ref 0 and a4_misses = ref 0 in
  for _ = 1 to 50 do
    List.iter
      (fun addr ->
        count_miss a2_misses a2 ~addr;
        count_miss a4_misses a4 ~addr)
      addrs
  done;
  Helpers.check_true "4-way absorbs the conflict set" (!a4_misses < !a2_misses)

let test_geometry_validation () =
  List.iter
    (fun (size, line, assoc) ->
      Helpers.check_true "bad geometry rejected"
        (try
           ignore
             (Cache.create
                { Params.c_size = size; c_line = line; c_assoc = assoc;
                  c_latency = 1; c_policy = Params.default_policy });
           false
         with Invalid_argument _ -> true))
    [ (1000, 16, 2); (1024, 24, 2); (1024, 16, 0); (16, 32, 1) ]

let test_full_assoc_working_set () =
  (* a working set exactly the cache size never misses after warmup *)
  let c = mk ~size:256 ~line:16 ~assoc:16 () in
  let addrs = List.init 16 (fun i -> i * 16) in
  List.iter (fun addr -> ignore (Cache.access c ~addr ~write:false)) addrs;
  let misses = ref 0 in
  for _ = 1 to 10 do
    List.iter (fun addr -> count_miss misses c ~addr) addrs
  done;
  Helpers.check_int "no misses after warmup" 0 !misses

(* -- victim tie-breaking (the contract documented in cache.mli) ------------ *)

(* n addresses that all map to set 0 of the given geometry. *)
let conflict_addrs ~size ~line ~assoc n =
  let sets = size / line / assoc in
  List.init n (fun i -> i * sets * line)

(* global line number the cache reports for an eviction (line = 16) *)
let line_of addr = addr / 16

let test_invalid_ways_claimed_first () =
  (* filling a 4-way set reports no eviction until every way is valid —
     under every policy, because the cache claims invalid ways itself *)
  List.iter
    (fun policy ->
      let c = mk ~size:1024 ~line:16 ~assoc:4 ~policy () in
      List.iteri
        (fun i addr ->
          let r = Cache.access c ~addr ~write:false in
          let name =
            Printf.sprintf "%s: access %d" (Params.policy_to_string policy) i
          in
          if i < 4 then
            Helpers.check_true (name ^ " claims an invalid way")
              (r.Cache.evicted_line = None)
          else
            Helpers.check_true (name ^ " must evict")
              (r.Cache.evicted_line <> None))
        (conflict_addrs ~size:1024 ~line:16 ~assoc:4 5))
    Params.all_policies

let test_lru_eviction_order () =
  (* invalid ways are claimed in ascending index order and true LRU then
     evicts in fill order: A B C D fill, E evicts A, F evicts B *)
  let c = mk ~size:1024 ~line:16 ~assoc:4 () in
  match conflict_addrs ~size:1024 ~line:16 ~assoc:4 6 with
  | [ a; b; cc; d; e; f ] ->
    List.iter
      (fun addr -> ignore (Cache.access c ~addr ~write:false))
      [ a; b; cc; d ];
    let r = Cache.access c ~addr:e ~write:false in
    Helpers.check_true "first eviction is the first fill"
      (r.Cache.evicted_line = Some (line_of a));
    let r = Cache.access c ~addr:f ~write:false in
    Helpers.check_true "second eviction is the second fill"
      (r.Cache.evicted_line = Some (line_of b))
  | _ -> assert false

let test_replacement_equal_stamps_lowest_way () =
  (* the observable order of a true-LRU set (this case once pinned the
     tie-break of per-way stamps, hence its name): a part-full set
     evicts nothing, a touched line survives the next eviction, and a
     full set then evicts its least recent line on every miss *)
  let c = mk ~size:1024 ~line:16 ~assoc:4 () in
  let evicted addr = (Cache.access c ~addr ~write:false).Cache.evicted_line in
  match conflict_addrs ~size:1024 ~line:16 ~assoc:4 6 with
  | [ a; b; cc; d; e; f ] ->
    List.iter
      (fun addr ->
        Helpers.check_true "a part-full set evicts nothing" (evicted addr = None))
      [ b; cc; d; a ];
    Helpers.check_true "touch the newest fill"
      (Cache.access c ~addr:a ~write:false).Cache.hit;
    Helpers.check_true "with it fresh, the oldest fill is evicted"
      (evicted e = Some (line_of b));
    Helpers.check_true "the touched line survives"
      (Cache.access c ~addr:a ~write:false).Cache.hit;
    (* most recent first, the set is now a, e, d, cc *)
    Helpers.check_true "the least recent line goes next"
      (evicted f = Some (line_of cc));
    Helpers.check_true "then the next least recent"
      (evicted b = Some (line_of d));
    Helpers.check_true "the cache keeps true LRU without a Replacement state"
      (try
         ignore (Replacement.create Params.True_lru ~ways:4);
         false
       with Invalid_argument _ -> true)
  | _ -> assert false

(* -- per-policy behaviour (hand-checked sequences) ------------------------- *)

let test_fifo_ignores_hits () =
  (* FIFO evicts the oldest *fill* even if it was just touched *)
  let addrs = conflict_addrs ~size:1024 ~line:16 ~assoc:2 3 in
  match addrs with
  | [ a; b; cc ] ->
    let run policy =
      let c = mk ~size:1024 ~line:16 ~assoc:2 ~policy () in
      ignore (Cache.access c ~addr:a ~write:false);
      ignore (Cache.access c ~addr:b ~write:false);
      ignore (Cache.access c ~addr:a ~write:false);
      (* touch a *)
      (Cache.access c ~addr:cc ~write:false).Cache.evicted_line
    in
    Helpers.check_true "FIFO evicts the oldest fill despite the hit"
      (run Params.Fifo = Some (line_of a));
    Helpers.check_true "true LRU protects the touched line"
      (run Params.True_lru = Some (line_of b))
  | _ -> assert false

let test_tree_plru_sequence () =
  (* 4-way tree PLRU, hand-walked: in-order fills leave every direction
     bit pointing left, so the fifth line evicts way 0; a hit on C then
     flips the root left and the walk lands on way 1 *)
  let c = mk ~size:1024 ~line:16 ~assoc:4 ~policy:Params.Tree_plru () in
  match conflict_addrs ~size:1024 ~line:16 ~assoc:4 6 with
  | [ a; b; cc; d; e; f ] ->
    List.iter
      (fun addr -> ignore (Cache.access c ~addr ~write:false))
      [ a; b; cc; d ];
    let r = Cache.access c ~addr:e ~write:false in
    Helpers.check_true "walk after in-order fills evicts way 0"
      (r.Cache.evicted_line = Some (line_of a));
    Helpers.check_true "hit on resident line"
      (Cache.access c ~addr:cc ~write:false).Cache.hit;
    let r = Cache.access c ~addr:f ~write:false in
    Helpers.check_true "flipped tree evicts way 1"
      (r.Cache.evicted_line = Some (line_of b))
  | _ -> assert false

let test_tree_plru_requires_pow2_ways () =
  List.iter
    (fun ways ->
      Helpers.check_true
        (Printf.sprintf "tree PLRU rejects %d ways" ways)
        (try
           ignore (Replacement.create Params.Tree_plru ~ways);
           false
         with Invalid_argument _ -> true))
    [ 3; 6; 12 ]

let test_qlru_variants_diverge () =
  (* fill A, hit A, fill B, insert C.  H11/M1: A re-ages to 0, B fills
     at 1, so B is the oldest and is evicted.  H00/M0: everything sits
     at age 0, normalisation ties, and way 0 (A) is evicted. *)
  let addrs = conflict_addrs ~size:1024 ~line:16 ~assoc:2 3 in
  match addrs with
  | [ a; b; cc ] ->
    let run policy =
      let c = mk ~size:1024 ~line:16 ~assoc:2 ~policy () in
      ignore (Cache.access c ~addr:a ~write:false);
      ignore (Cache.access c ~addr:a ~write:false);
      ignore (Cache.access c ~addr:b ~write:false);
      (Cache.access c ~addr:cc ~write:false).Cache.evicted_line
    in
    Helpers.check_true "H11/M1 evicts the age-1 fill"
      (run Params.Qlru_h11_m1 = Some (line_of b));
    Helpers.check_true "H00/M0 ties and takes way 0"
      (run Params.Qlru_h00_m0 = Some (line_of a))
  | _ -> assert false

let test_mru_n_does_not_protect_fills () =
  (* 4-way MRU_N: fills leave the use bit clear, hits set it, and a hit
     that would saturate clears everyone else.  After A B C D fill and
     A B C D hit (the D hit saturates), E evicts A; E's own fill stays
     unprotected so F immediately evicts E — unlike LRU, which would
     evict B. *)
  let c = mk ~size:1024 ~line:16 ~assoc:4 ~policy:Params.Mru_n () in
  match conflict_addrs ~size:1024 ~line:16 ~assoc:4 6 with
  | [ a; b; cc; d; e; f ] ->
    List.iter
      (fun addr -> ignore (Cache.access c ~addr ~write:false))
      [ a; b; cc; d; a; b; cc; d ];
    let r = Cache.access c ~addr:e ~write:false in
    Helpers.check_true "saturating hit cleared the others: way 0 evicts"
      (r.Cache.evicted_line = Some (line_of a));
    let r = Cache.access c ~addr:f ~write:false in
    Helpers.check_true "a fresh fill is not protected"
      (r.Cache.evicted_line = Some (line_of e))
  | _ -> assert false

(* -- policy-aware state-bit and gate accounting ---------------------------- *)

let test_state_bits_per_set () =
  List.iter
    (fun (policy, bits) ->
      List.iter2
        (fun ways want ->
          Helpers.check_int
            (Printf.sprintf "%s at %d ways"
               (Params.policy_to_string policy) ways)
            want
            (Replacement.state_bits_per_set policy ~ways))
        [ 2; 4; 8 ] bits)
    [
      (Params.True_lru, [ 2; 8; 24 ]);
      (Params.Fifo, [ 1; 2; 3 ]);
      (Params.Tree_plru, [ 1; 3; 7 ]);
      (Params.Qlru_h11_m1, [ 4; 8; 16 ]);
      (Params.Qlru_h00_m0, [ 4; 8; 16 ]);
      (Params.Mru_n, [ 2; 4; 8 ]);
    ]

let test_cost_model_policy_aware () =
  let geo policy =
    { Params.c_size = 2048; c_line = 32; c_assoc = 8; c_latency = 1;
      c_policy = policy }
  in
  let cost p = Mx_mem.Cost_model.cache (geo p) in
  let lru = cost Params.True_lru in
  Helpers.check_true "tree PLRU is cheaper than true LRU"
    (cost Params.Tree_plru < lru);
  Helpers.check_true "FIFO is cheaper than true LRU"
    (cost Params.Fifo < lru);
  Helpers.check_true "MRU_N is cheaper than true LRU"
    (cost Params.Mru_n < lru);
  Helpers.check_int "the two QLRU variants store the same bits"
    (cost Params.Qlru_h11_m1) (cost Params.Qlru_h00_m0)

(* [size] addresses in [0, 1_000_000], one case per length 1..100 *)
let prop_repeat_access_hits =
  Runner.prop ~max_size:100 "immediately repeated access always hits"
    (fun ~seed ~size ->
      let g = Mx_util.Prng.create ~seed in
      let addrs =
        List.init size (fun _ -> Mx_util.Prng.int_in g ~lo:0 ~hi:1_000_000)
      in
      let c = mk () in
      match
        List.find_opt
          (fun addr ->
            ignore (Cache.access c ~addr ~write:false);
            not (Cache.access c ~addr ~write:false).Cache.hit)
          addrs
      with
      | None -> Runner.Pass
      | Some addr -> Runner.failf "the repeat of %#x missed" addr)

let suite =
  ( "cache",
    [
      Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
      Alcotest.test_case "line granularity" `Quick test_line_granularity;
      Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
      Alcotest.test_case "writeback when dirty" `Quick test_writeback_only_when_dirty;
      Alcotest.test_case "lookup codes" `Quick test_lookup_codes;
      Alcotest.test_case "write allocate" `Quick test_write_allocate;
      Alcotest.test_case "counters" `Quick test_counters;
      Alcotest.test_case "size monotone" `Quick test_bigger_cache_fewer_misses;
      Alcotest.test_case "associativity" `Quick test_higher_assoc_no_conflicts;
      Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
      Alcotest.test_case "resident set" `Quick test_full_assoc_working_set;
      Alcotest.test_case "invalid ways claimed first" `Quick
        test_invalid_ways_claimed_first;
      Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
      Alcotest.test_case "equal stamps break to lowest way" `Quick
        test_replacement_equal_stamps_lowest_way;
      Alcotest.test_case "FIFO ignores hits" `Quick test_fifo_ignores_hits;
      Alcotest.test_case "tree PLRU sequence" `Quick test_tree_plru_sequence;
      Alcotest.test_case "tree PLRU needs pow2 ways" `Quick
        test_tree_plru_requires_pow2_ways;
      Alcotest.test_case "QLRU variants diverge" `Quick
        test_qlru_variants_diverge;
      Alcotest.test_case "MRU_N leaves fills unprotected" `Quick
        test_mru_n_does_not_protect_fills;
      Alcotest.test_case "replacement state bits" `Quick
        test_state_bits_per_set;
      Alcotest.test_case "cost model policy-aware" `Quick
        test_cost_model_policy_aware;
      Helpers.prop_case prop_repeat_access_hits;
    ] )
