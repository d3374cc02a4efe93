(* Golden regression pins for the exploration funnel: number of Phase I
   estimates, Phase II simulations, and global pareto-front size per
   kernel workload on the reduced catalogue.

   These values are exact and deterministic (fixed seed, fixed
   catalogue, and Explore.run is bit-identical at every jobs level).
   They WILL move when the estimator, the catalogues, the clustering or
   the synthesis change — that is the point: a diff here means the
   funnel shape changed, and the new values must be re-pinned
   deliberately, with the change explained in the PR. *)

module Explore = Conex.Explore

let scale = 4000
let seed = 7

let config ?(shards = 1) ~jobs () =
  {
    Explore.reduced_config with
    Explore.apex =
      { Mx_apex.Explore.reduced_config with Mx_apex.Explore.max_selected = 3 };
    jobs;
    shards;
  }

(* name, generator, (n_estimates, n_simulations, pareto front size) *)
let pins =
  [
    ("compress", Mx_trace.Kern_compress.generate, (112, 26, 9));
    ("vocoder", Mx_trace.Kern_vocoder.generate, (204, 27, 5));
    ("dijkstra", Mx_trace.Kern_graph.generate, (40, 15, 9));
  ]

let check_pin ?shards ~jobs (name, gen, (est, sim, front)) () =
  let w = gen ~scale ~seed in
  let r = Explore.run ~config:(config ?shards ~jobs ()) w in
  Helpers.check_int (name ^ ": n_estimates") est r.Explore.n_estimates;
  Helpers.check_int (name ^ ": n_simulations") sim r.Explore.n_simulations;
  Helpers.check_int (name ^ ": pareto front size") front
    (List.length r.Explore.pareto_cost_perf);
  (* internal consistency, independent of the pinned values *)
  (match
     Explore.phase1 (config ?shards ~jobs ()) w r.Explore.apex_selected
   with
  | Some per_arch ->
    Helpers.check_int "Phase I's estimates match the counter"
      r.Explore.n_estimates
      (List.fold_left (fun n l -> n + List.length l) 0 per_arch)
  | None -> Alcotest.fail "Phase I stopped without an interrupt");
  Helpers.check_int "simulated list matches the counter"
    r.Explore.n_simulations
    (List.length r.Explore.simulated);
  Helpers.check_true "funnel narrows"
    (r.Explore.n_estimates >= r.Explore.n_simulations
    && r.Explore.n_simulations >= List.length r.Explore.pareto_cost_perf)

(* The pins hold at every jobs level AND every shard count: Explore.run
   is bit-identical serial and parallel, and the shard work-queue merges
   back into the monolithic design stream, so the same numbers are
   checked under all three regimes. *)
let suite =
  ( "golden",
    List.map
      (fun ((name, _, _) as pin) ->
        Alcotest.test_case ("funnel: " ^ name) `Slow (check_pin ~jobs:1 pin))
      pins
    @ List.map
        (fun ((name, _, _) as pin) ->
          Alcotest.test_case
            (Printf.sprintf "funnel: %s (jobs=%d)" name Helpers.test_jobs)
            `Slow
            (check_pin ~jobs:Helpers.test_jobs pin))
        pins
    @ List.map
        (fun ((name, _, _) as pin) ->
          Alcotest.test_case
            (Printf.sprintf "funnel: %s (shards=4)" name)
            `Slow
            (check_pin ~shards:4 ~jobs:1 pin))
        pins )
