module Explore = Mx_apex.Explore
module Mem_arch = Mx_mem.Mem_arch
module Region = Mx_trace.Region

let profile () = Mx_trace.Profile.analyze (Helpers.mixed_workload ())

let test_candidates_nonempty () =
  let cands = Explore.candidates Explore.reduced_config (profile ()) in
  Helpers.check_true "candidates exist" (List.length cands > 4)

let test_candidates_respect_patterns () =
  let p = profile () in
  let cands = Explore.candidates Explore.default_config p in
  (* whenever an architecture has a stream buffer, the stream regions are
     bound to it *)
  let w = p.Mx_trace.Profile.workload in
  let stream = Mx_trace.Workload.region_by_name w "stream" in
  List.iter
    (fun (a : Mem_arch.t) ->
      if a.Mem_arch.sbuf <> None then
        Helpers.check_true "stream region on sbuf"
          (Mem_arch.binding_of a ~region:stream.Region.id = Mem_arch.To_sbuf))
    cands

let test_no_empty_architecture () =
  let cands = Explore.candidates Explore.default_config (profile ()) in
  List.iter
    (fun (a : Mem_arch.t) ->
      Helpers.check_true "at least one module"
        (a.Mem_arch.cache <> None || a.Mem_arch.sbuf <> None
        || a.Mem_arch.lldma <> None || a.Mem_arch.sram <> None))
    cands

let test_evaluate_counts () =
  let p = profile () in
  let arch = List.hd (Explore.candidates Explore.reduced_config p) in
  let c = Explore.evaluate p arch in
  Helpers.check_true "miss ratio in range"
    (c.Explore.miss_ratio >= 0.0 && c.Explore.miss_ratio <= 1.0);
  Helpers.check_int "cost matches architecture" (Mem_arch.cost_gates arch)
    c.Explore.cost_gates;
  Helpers.check_int "profile covers the trace"
    p.Mx_trace.Profile.total_accesses c.Explore.profile.Mx_mem.Mem_sim.accesses

(* [Explore.explore] runs [Mem_sim.run_all], while [Explore.evaluate]
   routes every access of one candidate through [Mem_sim.access]. *)
let check_explore_equals_evaluate config =
  let p = profile () in
  let composed = Explore.explore ~config p
  and reference = List.map (Explore.evaluate p) (Explore.candidates config p) in
  Helpers.check_int "one result per candidate" (List.length reference)
    (List.length composed);
  List.iter2
    (fun (c : Explore.candidate) (r : Explore.candidate) ->
      let label = r.Explore.arch.Mem_arch.label in
      Alcotest.(check string)
        (label ^ " architecture")
        (Mem_arch.fingerprint r.Explore.arch)
        (Mem_arch.fingerprint c.Explore.arch);
      Helpers.check_int (label ^ " cost") r.Explore.cost_gates
        c.Explore.cost_gates;
      Helpers.check_true (label ^ " miss ratio")
        (c.Explore.miss_ratio = r.Explore.miss_ratio);
      Alcotest.(check (list (pair string int)))
        (label ^ " profile")
        (Mx_check.Oracle.profile_canon r.Explore.profile)
        (Mx_check.Oracle.profile_canon c.Explore.profile))
    composed reference

let test_explore_equals_evaluate () =
  check_explore_equals_evaluate Explore.default_config

(* Every cache family has two victim buffers and two L2s, so its
   variants share buffers, run L2s behind them and derive the L2-less
   profiles from counts; the cacheless architectures add write-buffer
   groups and the counted direct-DRAM and scratchpad groups. *)
let test_explore_equals_evaluate_two_each () =
  let cache c_size c_line c_assoc c_latency c_policy =
    { Mx_mem.Params.c_size; c_line; c_assoc; c_latency; c_policy }
  in
  check_explore_equals_evaluate
    {
      Explore.reduced_config with
      caches =
        [ cache 512 16 1 1 Mx_mem.Params.Fifo;
          cache 2048 32 2 1 Mx_mem.Params.Tree_plru ];
      include_no_cache = true;
      lldmas = Mx_mem.Module_lib.lldmas;
      l2s = [ cache 4096 32 2 4 Mx_mem.Params.default_policy;
              cache 8192 64 4 4 Mx_mem.Params.Qlru_h11_m1 ];
      victims =
        [ { Mx_mem.Params.v_entries = 2; v_latency = 1 };
          { Mx_mem.Params.v_entries = 8; v_latency = 1 } ];
      write_buffers =
        [ { Mx_mem.Params.wb_entries = 2; wb_drain = 3 };
          { Mx_mem.Params.wb_entries = 4; wb_drain = 4 } ];
      sram_budget = 4096;
    }

let test_pareto_is_front () =
  let p = profile () in
  let all = Explore.explore ~config:Explore.reduced_config p in
  let front = Explore.pareto all in
  Helpers.check_true "front nonempty" (front <> []);
  (* no member dominated by any candidate *)
  List.iter
    (fun (m : Explore.candidate) ->
      Helpers.check_true "front member undominated"
        (not
           (List.exists
              (fun (c : Explore.candidate) ->
                c.Explore.cost_gates <= m.Explore.cost_gates
                && c.Explore.miss_ratio <= m.Explore.miss_ratio
                && (c.Explore.cost_gates < m.Explore.cost_gates
                   || c.Explore.miss_ratio < m.Explore.miss_ratio))
              all)))
    front

let test_select_cap_and_order () =
  let p = profile () in
  let sel = Explore.select ~config:Explore.reduced_config p in
  Helpers.check_true "at most max_selected + baseline"
    (List.length sel <= Explore.reduced_config.Explore.max_selected + 1);
  Helpers.check_true "a traditional cache-only baseline is included"
    (List.exists
       (fun (c : Explore.candidate) ->
         c.Explore.arch.Mem_arch.cache <> None
         && c.Explore.arch.Mem_arch.sbuf = None
         && c.Explore.arch.Mem_arch.lldma = None
         && c.Explore.arch.Mem_arch.sram = None)
       sel);
  let costs = List.map (fun c -> c.Explore.cost_gates) sel in
  Helpers.check_true "sorted by cost" (costs = List.sort compare costs)

let test_select_deterministic () =
  let p = profile () in
  let l1 = Explore.select ~config:Explore.reduced_config p
  and l2 = Explore.select ~config:Explore.reduced_config p in
  Helpers.check_true "same labels"
    (List.map (fun c -> c.Explore.arch.Mem_arch.label) l1
    = List.map (fun c -> c.Explore.arch.Mem_arch.label) l2)

let test_select_excludes_degenerate () =
  let p = profile () in
  let sel = Explore.select ~config:Explore.default_config p in
  let best =
    List.fold_left (fun acc c -> Float.min acc c.Explore.miss_ratio) infinity sel
  in
  List.iter
    (fun c ->
      Helpers.check_true "within the promising band"
        (c.Explore.miss_ratio <= Float.max (2.0 *. best) (best +. 0.02)))
    sel

let test_select_single_slot () =
  let p = profile () in
  let config = { Explore.reduced_config with Explore.max_selected = 1 } in
  let front = Explore.pareto (Explore.explore ~config p) in
  let best =
    List.fold_left (fun acc c -> Float.min acc c.Explore.miss_ratio) infinity
      front
  in
  let banded =
    List.filter
      (fun c -> c.Explore.miss_ratio <= Float.max (2.0 *. best) (best +. 0.02))
      front
  in
  Helpers.check_true "the band has more points than the one slot"
    (List.length banded > 1);
  let sel = Explore.select ~config p in
  Helpers.check_true "one point, plus the baseline at most"
    (List.length sel <= 2);
  let fp (c : Explore.candidate) = Mem_arch.fingerprint c.Explore.arch in
  Helpers.check_true "keeps the lowest-cost banded point"
    (List.exists (fun c -> fp c = fp (List.hd banded)) sel)

let suite =
  ( "apex",
    [
      Alcotest.test_case "candidates nonempty" `Quick test_candidates_nonempty;
      Alcotest.test_case "patterns respected" `Quick test_candidates_respect_patterns;
      Alcotest.test_case "no empty arch" `Quick test_no_empty_architecture;
      Alcotest.test_case "evaluate counts" `Quick test_evaluate_counts;
      Alcotest.test_case "explore equals evaluate" `Slow
        test_explore_equals_evaluate;
      Alcotest.test_case "pareto is a front" `Slow test_pareto_is_front;
      Alcotest.test_case "select cap/order" `Slow test_select_cap_and_order;
      Alcotest.test_case "select deterministic" `Slow test_select_deterministic;
      Alcotest.test_case "select band" `Slow test_select_excludes_degenerate;
      Alcotest.test_case "select single slot" `Slow test_select_single_slot;
      Alcotest.test_case
        "explore equals evaluate, two victims and two L2s per cache" `Slow
        test_explore_equals_evaluate_two_each;
    ] )
