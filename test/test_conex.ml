(* Design points, scenarios, the ConEx two-phase algorithm, strategies,
   coverage and reporting — on a small synthetic workload with the
   reduced configuration so everything runs in seconds. *)

module Design = Conex.Design
module Explore = Conex.Explore
module Scenario = Conex.Scenario
module Strategy = Conex.Strategy
module Coverage = Conex.Coverage
module Report = Conex.Report

let small_workload = lazy (Helpers.mixed_workload ~scale:8000 ())

let small_config =
  {
    Explore.reduced_config with
    Explore.apex =
      { Mx_apex.Explore.reduced_config with Mx_apex.Explore.max_selected = 3 };
  }

let conex_result = lazy (Explore.run ~config:small_config (Lazy.force small_workload))

(* -- design -------------------------------------------------------------- *)

let any_design () =
  match (Lazy.force conex_result).Explore.simulated with
  | d :: _ -> d
  | [] -> Alcotest.fail "no simulated designs"

let test_design_cost_is_sum () =
  let d = any_design () in
  Helpers.check_int "cost = mem + conn"
    (Mx_mem.Mem_arch.cost_gates d.Design.mem
    + d.Design.conn.Mx_connect.Conn_arch.cost_gates)
    d.Design.cost_gates

let test_design_best_result_prefers_sim () =
  let d = any_design () in
  Helpers.check_true "simulated design reports exact metrics"
    (Design.best_result d).Mx_sim.Sim_result.exact

let test_design_unevaluated_rejected () =
  let d = any_design () in
  let bare =
    Design.make ~workload_name:"x" ~mem:d.Design.mem ~conn:d.Design.conn ()
  in
  Helpers.check_true "unevaluated design rejected"
    (try
       ignore (Design.best_result bare);
       false
     with Invalid_argument _ -> true)

let test_design_id_stable () =
  let d = any_design () in
  let without_sim = { d with Design.sim = None } in
  Helpers.check_true "id ignores metrics" (Design.equal_structure d without_sim)

(* -- explore -------------------------------------------------------------- *)

let test_run_produces_phases () =
  let r = Lazy.force conex_result in
  Helpers.check_true "phase-I estimates exist" (r.Explore.n_estimates > 0);
  Helpers.check_true "phase-II simulations exist" (r.Explore.n_simulations > 0);
  Helpers.check_true "fewer simulations than estimates"
    (r.Explore.n_simulations < r.Explore.n_estimates);
  Helpers.check_true "apex selected architectures"
    (r.Explore.apex_selected <> [])

let test_all_estimates_are_estimates () =
  let r = Lazy.force conex_result in
  match
    Explore.phase1 small_config (Lazy.force small_workload)
      r.Explore.apex_selected
  with
  | None -> Alcotest.fail "Phase I stopped without an interrupt"
  | Some per_arch ->
    let estimated = List.concat per_arch in
    Helpers.check_int "one Phase I design per estimate" r.Explore.n_estimates
      (List.length estimated);
    List.iter
      (fun (d : Design.t) ->
        Helpers.check_true "est populated" (d.Design.est <> None);
        Helpers.check_true "not simulated yet" (d.Design.sim = None))
      estimated

let test_all_simulated_have_sim () =
  let r = Lazy.force conex_result in
  List.iter
    (fun (d : Design.t) -> Helpers.check_true "sim populated" (d.Design.sim <> None))
    r.Explore.simulated

let test_pareto_subset_of_simulated () =
  let r = Lazy.force conex_result in
  List.iter
    (fun p ->
      Helpers.check_true "pareto member simulated"
        (List.exists (Design.equal_structure p) r.Explore.simulated))
    r.Explore.pareto_cost_perf

let test_pareto_undominated () =
  let r = Lazy.force conex_result in
  List.iter
    (fun p ->
      Helpers.check_true "undominated in cost/perf"
        (not
           (List.exists
              (fun d ->
                Design.cost d <= Design.cost p
                && Design.latency d <= Design.latency p
                && (Design.cost d < Design.cost p
                   || Design.latency d < Design.latency p))
              r.Explore.simulated)))
    r.Explore.pareto_cost_perf

let test_local_promising_caps () =
  let r = Lazy.force conex_result in
  let per_arch =
    match
      Explore.phase1 small_config (Lazy.force small_workload)
        [ List.hd r.Explore.apex_selected ]
    with
    | Some [ ests ] -> ests
    | _ -> Alcotest.fail "one candidate in, one estimate list out"
  in
  let kept = Explore.local_promising small_config per_arch in
  Helpers.check_true "locally kept bounded"
    (List.length kept <= small_config.Explore.phase1_keep);
  Helpers.check_true "kept nonempty" (kept <> [])

(* -- scenarios ------------------------------------------------------------- *)

let test_scenarios_respect_constraints () =
  let r = Lazy.force conex_result in
  let designs = r.Explore.simulated in
  let p50 xs = Option.get (Mx_util.Stats.percentile xs ~p:50.0) in
  let e_med = p50 (List.map Design.energy designs) in
  let sel = Scenario.select (Scenario.Power_constrained e_med) designs in
  Helpers.check_true "power scenario nonempty" (sel <> []);
  List.iter
    (fun d -> Helpers.check_true "energy bound" (Design.energy d <= e_med))
    sel;
  let c_med = p50 (List.map Design.cost designs) in
  List.iter
    (fun d -> Helpers.check_true "cost bound" (Design.cost d <= c_med))
    (Scenario.select (Scenario.Cost_constrained c_med) designs);
  let l_med = p50 (List.map Design.latency designs) in
  List.iter
    (fun d -> Helpers.check_true "latency bound" (Design.latency d <= l_med))
    (Scenario.select (Scenario.Perf_constrained l_med) designs)

let test_scenario_impossible_constraint_empty () =
  let r = Lazy.force conex_result in
  Helpers.check_int "unsatisfiable constraint" 0
    (List.length
       (Scenario.select (Scenario.Power_constrained 0.0001) r.Explore.simulated))

let test_scenario_fronts_are_fronts () =
  let r = Lazy.force conex_result in
  let designs = r.Explore.simulated in
  List.iter
    (fun sc ->
      let x, y = Scenario.frontier_axes sc in
      let sel = Scenario.select sc designs in
      List.iter
        (fun m ->
          Helpers.check_true "scenario front undominated"
            (not
               (List.exists
                  (fun d ->
                    x d <= x m && y d <= y m && (x d < x m || y d < y m))
                  sel)))
        sel)
    [
      Scenario.Power_constrained infinity;
      Scenario.Cost_constrained infinity;
      Scenario.Perf_constrained infinity;
    ]

(* -- strategies + coverage --------------------------------------------------- *)

let strategies = lazy (
  let w = Lazy.force small_workload in
  let full = Strategy.run ~config:small_config Strategy.Full w in
  let pruned = Strategy.run ~config:small_config Strategy.Pruned w in
  let nbhd = Strategy.run ~config:small_config Strategy.Neighborhood w in
  (full, pruned, nbhd))

let test_strategy_sim_counts_ordered () =
  let full, pruned, nbhd = Lazy.force strategies in
  Helpers.check_true "pruned simulates least"
    (pruned.Strategy.n_simulations <= nbhd.Strategy.n_simulations);
  Helpers.check_true "full simulates most"
    (nbhd.Strategy.n_simulations <= full.Strategy.n_simulations)

let test_full_coverage_of_itself () =
  let full, _, _ = Lazy.force strategies in
  let r = Coverage.eval ~reference:full full in
  Helpers.check_float "full covers itself" 100.0 r.Coverage.coverage_pct

let test_pruned_coverage_report () =
  let full, pruned, _ = Lazy.force strategies in
  let r = Coverage.eval ~reference:full pruned in
  Helpers.check_true "coverage within [0,100]"
    (r.Coverage.coverage_pct >= 0.0 && r.Coverage.coverage_pct <= 100.0);
  Helpers.check_true "distances are finite and non-negative"
    (r.Coverage.avg_cost_dist_pct >= 0.0
    && r.Coverage.avg_perf_dist_pct >= 0.0
    && r.Coverage.avg_energy_dist_pct >= 0.0)

let test_neighborhood_at_least_as_good () =
  let full, pruned, nbhd = Lazy.force strategies in
  let rp = Coverage.eval ~reference:full pruned in
  let rn = Coverage.eval ~reference:full nbhd in
  Helpers.check_true "wider search covers at least as much"
    (rn.Coverage.coverage_pct >= rp.Coverage.coverage_pct -. 1e-9)

let test_coverage_requires_full_reference () =
  let _, pruned, _ = Lazy.force strategies in
  Helpers.check_true "non-full reference rejected"
    (try
       ignore (Coverage.eval ~reference:pruned pruned);
       false
     with Invalid_argument _ -> true)

let test_full_budget_guard () =
  let w = Lazy.force small_workload in
  Helpers.check_true "budget guard raises"
    (try
       ignore (Strategy.run ~config:small_config ~full_budget:1 Strategy.Full w);
       false
     with Strategy.Full_infeasible _ -> true)

(* The guard is exact: a budget of exactly the projected simulation
   count is feasible; one less is not, and the exception payload
   carries both numbers. *)
let test_full_budget_boundary () =
  let w = Lazy.force small_workload in
  let full, _, _ = Lazy.force strategies in
  let projected = full.Strategy.n_simulations in
  let at =
    Strategy.run ~config:small_config ~full_budget:projected Strategy.Full w
  in
  Helpers.check_int "budget = projection runs the full sweep" projected
    at.Strategy.n_simulations;
  match
    Strategy.run ~config:small_config ~full_budget:(projected - 1)
      Strategy.Full w
  with
  | _ -> Alcotest.fail "budget below the projection should raise"
  | exception Strategy.Full_infeasible { projected_sims; budget } ->
    Helpers.check_int "payload carries the projection" projected
      projected_sims;
    Helpers.check_int "payload carries the budget" (projected - 1) budget

(* Full walks every APEX architecture's shard plan: the designs, in
   order, of the monolithic enumeration, and a projection that counts
   exactly them *)
let test_full_equals_enumeration () =
  let w = Lazy.force small_workload in
  let config = Explore.reduced_config in
  let want =
    Mx_apex.Explore.explore ~config:config.Explore.apex
      (Mx_trace.Profile.analyze w)
    |> List.concat_map (fun (cand : Mx_apex.Explore.candidate) ->
           let mem = cand.Mx_apex.Explore.arch in
           let brg = Mx_connect.Brg.build mem cand.Mx_apex.Explore.profile in
           Mx_connect.Assign.enumerate_levels
             ~max_designs_per_level:config.Explore.max_designs_per_level
             ~onchip:config.Explore.onchip ~offchip:config.Explore.offchip
             brg.Mx_connect.Brg.channels
           |> List.map (fun conn ->
                  Design.structural_key
                    (Design.make ~workload_name:"" ~mem ~conn ())))
  in
  let full = Strategy.run ~config Strategy.Full w in
  Helpers.check_true "Full's designs are the enumeration's, in order"
    (List.map Design.structural_key full.Strategy.designs = want);
  let n = List.length want in
  match Strategy.run ~config ~full_budget:(n - 1) Strategy.Full w with
  | _ -> Alcotest.fail "a budget below the design count should raise"
  | exception Strategy.Full_infeasible { projected_sims; _ } ->
    Helpers.check_int "the projection counts the enumeration" n projected_sims

(* -- report ------------------------------------------------------------------ *)

let test_annotate_labels () =
  let r = Lazy.force conex_result in
  let labels = List.map fst (Report.annotate r.Explore.pareto_cost_perf) in
  Helpers.check_true "labels start at a"
    (match labels with "a" :: _ -> true | _ -> false);
  Helpers.check_int "unique labels"
    (List.length labels)
    (List.length (List.sort_uniq compare labels))

let test_annotate_sorted_by_cost () =
  let r = Lazy.force conex_result in
  let designs = List.map snd (Report.annotate r.Explore.pareto_cost_perf) in
  let costs = List.map Design.cost designs in
  Helpers.check_true "ascending cost" (costs = List.sort compare costs)

let test_ascii_scatter_renders () =
  let r = Lazy.force conex_result in
  let s =
    Report.ascii_scatter ~x:Design.cost ~y:Design.latency
      ~highlight:r.Explore.pareto_cost_perf r.Explore.simulated
  in
  Helpers.check_true "plot has rows" (List.length (String.split_on_char '\n' s) > 10);
  Helpers.check_true "plot marks pareto" (String.contains s '#')

let test_design_table_rows () =
  let r = Lazy.force conex_result in
  let t = Report.design_table r.Explore.pareto_cost_perf in
  let rendered = Mx_util.Table.render t in
  Helpers.check_true "table mentions gates column"
    (let needle = "cost [gates]" in
     let nl = String.length needle and hl = String.length rendered in
     let rec go i = i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1)) in
     go 0)

let suite =
  ( "conex",
    [
      Alcotest.test_case "design cost sum" `Slow test_design_cost_is_sum;
      Alcotest.test_case "best_result prefers sim" `Slow test_design_best_result_prefers_sim;
      Alcotest.test_case "unevaluated rejected" `Slow test_design_unevaluated_rejected;
      Alcotest.test_case "id stable" `Slow test_design_id_stable;
      Alcotest.test_case "two phases" `Slow test_run_produces_phases;
      Alcotest.test_case "estimates marked" `Slow test_all_estimates_are_estimates;
      Alcotest.test_case "simulated marked" `Slow test_all_simulated_have_sim;
      Alcotest.test_case "pareto subset" `Slow test_pareto_subset_of_simulated;
      Alcotest.test_case "pareto undominated" `Slow test_pareto_undominated;
      Alcotest.test_case "local promising caps" `Slow test_local_promising_caps;
      Alcotest.test_case "scenario constraints" `Slow test_scenarios_respect_constraints;
      Alcotest.test_case "impossible constraint" `Slow test_scenario_impossible_constraint_empty;
      Alcotest.test_case "scenario fronts" `Slow test_scenario_fronts_are_fronts;
      Alcotest.test_case "strategy sim counts" `Slow test_strategy_sim_counts_ordered;
      Alcotest.test_case "full self-coverage" `Slow test_full_coverage_of_itself;
      Alcotest.test_case "pruned coverage" `Slow test_pruned_coverage_report;
      Alcotest.test_case "neighborhood >= pruned" `Slow test_neighborhood_at_least_as_good;
      Alcotest.test_case "coverage reference check" `Slow test_coverage_requires_full_reference;
      Alcotest.test_case "full budget guard" `Slow test_full_budget_guard;
      Alcotest.test_case "full budget boundary" `Slow
        test_full_budget_boundary;
      Alcotest.test_case "full equals the enumeration" `Slow
        test_full_equals_enumeration;
      Alcotest.test_case "annotate labels" `Slow test_annotate_labels;
      Alcotest.test_case "annotate sorted" `Slow test_annotate_sorted_by_cost;
      Alcotest.test_case "ascii scatter" `Slow test_ascii_scatter_renders;
      Alcotest.test_case "design table" `Slow test_design_table_rows;
    ] )
