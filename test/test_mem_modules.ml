(* Stream buffer, linked-list DMA, DRAM, cost and energy models. *)

module Params = Mx_mem.Params
module Sbuf = Mx_mem.Stream_buffer
module Lldma = Mx_mem.Lldma
module Dram = Mx_mem.Dram
module Cost = Mx_mem.Cost_model
module Energy = Mx_mem.Energy_model

let sbuf_params =
  { Params.sb_streams = 2; sb_line = 32; sb_depth = 2; sb_latency = 1 }

let lldma_params =
  { Params.ll_entries = 16; ll_elem = 8; ll_max_gap = 6; ll_latency = 1 }

(* -- stream buffer ---------------------------------------------------- *)

let test_sbuf_sequential_hits () =
  let s = Sbuf.create sbuf_params in
  ignore (Sbuf.access s ~addr:0 ~write:false);
  let hits = ref 0 in
  for i = 1 to 255 do
    if (Sbuf.access s ~addr:i ~write:false).Sbuf.hit then incr hits
  done;
  (* after the first allocation the whole byte stream stays resident *)
  Helpers.check_int "stream fully covered" 255 !hits

let test_sbuf_two_streams () =
  let s = Sbuf.create sbuf_params in
  ignore (Sbuf.access s ~addr:0 ~write:false);
  ignore (Sbuf.access s ~addr:1_000_000 ~write:false);
  (* both streams advance without evicting each other *)
  Helpers.check_true "stream A alive" (Sbuf.access s ~addr:4 ~write:false).Sbuf.hit;
  Helpers.check_true "stream B alive"
    (Sbuf.access s ~addr:1_000_004 ~write:false).Sbuf.hit

let test_sbuf_lru_reallocation () =
  let s = Sbuf.create sbuf_params in
  ignore (Sbuf.access s ~addr:0 ~write:false); (* slot 1 *)
  ignore (Sbuf.access s ~addr:1_000_000 ~write:false); (* slot 2 *)
  ignore (Sbuf.access s ~addr:2_000_000 ~write:false); (* evicts slot for addr 0 *)
  Helpers.check_true "oldest stream evicted"
    (not (Sbuf.access s ~addr:0 ~write:false).Sbuf.hit)

let test_sbuf_prefetch_traffic () =
  let s = Sbuf.create sbuf_params in
  let r = Sbuf.access s ~addr:0 ~write:false in
  Helpers.check_int "initial depth fetched" 2 r.Sbuf.fetched_lines;
  (* crossing into the next line fetches exactly one more *)
  let r2 = Sbuf.access s ~addr:32 ~write:false in
  Helpers.check_true "hit while advancing" r2.Sbuf.hit;
  Helpers.check_int "one line prefetched" 1 r2.Sbuf.fetched_lines

let test_sbuf_geometry_validation () =
  Helpers.check_true "zero streams rejected"
    (try
       ignore (Sbuf.create { sbuf_params with Params.sb_streams = 0 });
       false
     with Invalid_argument _ -> true)

let test_sbuf_miss_ratio_on_random () =
  let s = Sbuf.create sbuf_params in
  let g = Mx_util.Prng.create ~seed:3 and misses = ref 0 in
  for _ = 1 to 1000 do
    let addr = Mx_util.Prng.int g ~bound:1_000_000_000 in
    if not (Sbuf.access s ~addr ~write:false).Sbuf.hit then incr misses
  done;
  Helpers.check_true "random accesses mostly miss" (!misses > 900)

(* -- lldma ------------------------------------------------------------ *)

let test_lldma_chase_hits () =
  let l = Lldma.create lldma_params in
  ignore (Lldma.access l ~now:0 ~write:false); (* chase start: miss *)
  let r1 = Lldma.access l ~now:2 ~write:false in
  let r2 = Lldma.access l ~now:4 ~write:false in
  Helpers.check_true "chase continues -> hits" (r1.Lldma.hit && r2.Lldma.hit)

let test_lldma_gap_breaks_chase () =
  let l = Lldma.create lldma_params in
  ignore (Lldma.access l ~now:0 ~write:false);
  ignore (Lldma.access l ~now:2 ~write:false);
  let r = Lldma.access l ~now:100 ~write:false in
  Helpers.check_true "large gap restarts the chase" (not r.Lldma.hit)

let test_lldma_boundary_gap () =
  let l = Lldma.create lldma_params in
  ignore (Lldma.access l ~now:0 ~write:false);
  Helpers.check_true "gap = max_gap still hits"
    (Lldma.access l ~now:6 ~write:false).Lldma.hit;
  ignore (Lldma.access l ~now:100 ~write:false);
  Helpers.check_true "gap = max_gap+1 misses"
    (not (Lldma.access l ~now:107 ~write:false).Lldma.hit)

let test_lldma_time_monotonicity () =
  let l = Lldma.create lldma_params in
  ignore (Lldma.access l ~now:10 ~write:false);
  Helpers.check_true "time going backwards rejected"
    (try
       ignore (Lldma.access l ~now:5 ~write:false);
       false
     with Invalid_argument _ -> true)

let test_lldma_write_burst_no_fetch () =
  let l = Lldma.create lldma_params in
  let r = Lldma.access l ~now:0 ~write:true in
  Helpers.check_int "write start fetches nothing" 0 r.Lldma.fetched_elems

let test_lldma_miss_ratio_counted () =
  let l = Lldma.create lldma_params in
  let misses =
    List.filter
      (fun now -> not (Lldma.access l ~now ~write:false).Lldma.hit)
      [ 0; 2; 1000 ]
  in
  Helpers.check_int "two chase starts in three accesses" 2
    (List.length misses)

(* -- dram -------------------------------------------------------------- *)

let dram_params = Mx_mem.Module_lib.default_dram

let test_dram_row_hit_cheaper () =
  let d = Dram.create dram_params in
  let first = Dram.access d ~addr:0 in
  let second = Dram.access d ~addr:8 in
  Helpers.check_true "row hit cheaper than activation" (second < first);
  Helpers.check_int "row hit = CAS" dram_params.Params.d_cas second

let test_dram_row_conflict_costs_precharge () =
  let d = Dram.create dram_params in
  ignore (Dram.access d ~addr:0);
  (* same bank, different row: banks are selected by row number *)
  let row_stride = dram_params.Params.d_row * dram_params.Params.d_banks in
  let lat = Dram.access d ~addr:row_stride in
  Helpers.check_int "precharge + activate + cas"
    (dram_params.Params.d_rp + dram_params.Params.d_rcd + dram_params.Params.d_cas)
    lat

let test_dram_bank_parallel_rows () =
  let d = Dram.create dram_params in
  ignore (Dram.access d ~addr:0);
  (* a different bank keeps its own open row *)
  ignore (Dram.access d ~addr:dram_params.Params.d_row);
  Helpers.check_int "bank 0 row still open" dram_params.Params.d_cas
    (Dram.access d ~addr:16)

let test_dram_idle_bank () =
  (* a precharged bank activates its row without a precharge first,
     in every bank *)
  let d = Dram.create dram_params in
  let idle = dram_params.Params.d_rcd + dram_params.Params.d_cas in
  Helpers.check_int "first access activates" idle (Dram.access d ~addr:0);
  Helpers.check_int "another bank is idle too" idle
    (Dram.access d ~addr:dram_params.Params.d_row)

(* -- cost model -------------------------------------------------------- *)

let test_cache_cost_monotone_in_size () =
  let base = { Params.c_size = 8192; c_line = 32; c_assoc = 2; c_latency = 1; c_policy = Params.default_policy } in
  let c1 = Cost.cache base
  and c2 = Cost.cache { base with Params.c_size = 16384 } in
  Helpers.check_true "bigger cache costs more" (c2 > c1);
  Helpers.check_true "roughly doubles" (c2 > c1 * 3 / 2 && c2 < c1 * 5 / 2)

let test_cache_cost_calibration () =
  (* the 32KB cache should land near the paper's ~0.48M gate baseline *)
  let c =
    Cost.cache { Params.c_size = 32768; c_line = 32; c_assoc = 2; c_latency = 2; c_policy = Params.default_policy }
  in
  Helpers.check_true "32KB cache ~ 0.4-0.6M gates" (c > 400_000 && c < 600_000)

let test_sram_cheaper_than_cache () =
  let cache =
    Cost.cache { Params.c_size = 8192; c_line = 32; c_assoc = 2; c_latency = 1; c_policy = Params.default_policy }
  and sram = Cost.sram { Params.s_size = 8192; s_latency = 1 } in
  Helpers.check_true "no tags -> cheaper" (sram < cache)

let test_small_module_costs () =
  Helpers.check_true "sbuf cost positive & modest"
    (Cost.stream_buffer sbuf_params > 0 && Cost.stream_buffer sbuf_params < 50_000);
  Helpers.check_true "lldma cost positive & modest"
    (Cost.lldma lldma_params > 0 && Cost.lldma lldma_params < 50_000)

(* -- energy model ------------------------------------------------------ *)

let test_energy_positive_and_ordered () =
  let small =
    Energy.cache_access
      { Params.c_size = 4096; c_line = 32; c_assoc = 2; c_latency = 1; c_policy = Params.default_policy }
      ~write:false
  and big =
    Energy.cache_access
      { Params.c_size = 65536; c_line = 32; c_assoc = 2; c_latency = 1; c_policy = Params.default_policy }
      ~write:false
  in
  Helpers.check_true "positive" (small > 0.0);
  Helpers.check_true "bigger array costs more energy" (big > small)

let test_write_energy_premium () =
  let p = { Params.c_size = 4096; c_line = 32; c_assoc = 2; c_latency = 1; c_policy = Params.default_policy } in
  Helpers.check_true "writes cost more"
    (Energy.cache_access p ~write:true > Energy.cache_access p ~write:false)

let test_dram_dominates_onchip () =
  let p = { Params.c_size = 65536; c_line = 32; c_assoc = 2; c_latency = 1; c_policy = Params.default_policy } in
  Helpers.check_true "off-chip access dwarfs on-chip"
    (Energy.dram_access ~bytes:32 > 20.0 *. Energy.cache_access p ~write:false)

let suite =
  ( "mem-modules",
    [
      Alcotest.test_case "sbuf sequential hits" `Quick test_sbuf_sequential_hits;
      Alcotest.test_case "sbuf two streams" `Quick test_sbuf_two_streams;
      Alcotest.test_case "sbuf LRU" `Quick test_sbuf_lru_reallocation;
      Alcotest.test_case "sbuf prefetch traffic" `Quick test_sbuf_prefetch_traffic;
      Alcotest.test_case "sbuf validation" `Quick test_sbuf_geometry_validation;
      Alcotest.test_case "sbuf random misses" `Quick test_sbuf_miss_ratio_on_random;
      Alcotest.test_case "lldma chase hits" `Quick test_lldma_chase_hits;
      Alcotest.test_case "lldma gap break" `Quick test_lldma_gap_breaks_chase;
      Alcotest.test_case "lldma boundary gap" `Quick test_lldma_boundary_gap;
      Alcotest.test_case "lldma time monotone" `Quick test_lldma_time_monotonicity;
      Alcotest.test_case "lldma write burst" `Quick test_lldma_write_burst_no_fetch;
      Alcotest.test_case "lldma counters" `Quick test_lldma_miss_ratio_counted;
      Alcotest.test_case "dram row hit" `Quick test_dram_row_hit_cheaper;
      Alcotest.test_case "dram row conflict" `Quick test_dram_row_conflict_costs_precharge;
      Alcotest.test_case "dram banks" `Quick test_dram_bank_parallel_rows;
      Alcotest.test_case "dram idle bank" `Quick test_dram_idle_bank;
      Alcotest.test_case "cost monotone" `Quick test_cache_cost_monotone_in_size;
      Alcotest.test_case "cost calibration" `Quick test_cache_cost_calibration;
      Alcotest.test_case "sram cheaper" `Quick test_sram_cheaper_than_cache;
      Alcotest.test_case "small module costs" `Quick test_small_module_costs;
      Alcotest.test_case "energy ordering" `Quick test_energy_positive_and_ordered;
      Alcotest.test_case "write premium" `Quick test_write_energy_premium;
      Alcotest.test_case "dram energy dominates" `Quick test_dram_dominates_onchip;
    ] )
