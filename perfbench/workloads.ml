(* The benchmark's workloads: what each one runs untraced (the timed
   runs) and how the traced run re-executes it through the public stage
   functions, with a span around every call. *)

module Design = Conex.Design
module Explore = Conex.Explore
module Strategy = Conex.Strategy
module Eval = Mx_sim.Eval
module Archive = Mx_util.Pareto.Archive

type kind = Explore_run | Strategies

type spec = {
  name : string;
  generate : scale:int -> seed:int -> Mx_trace.Workload.t;
  scale : int;
  config : Explore.config;
  kind : kind;
}

let serial (c : Explore.config) = { c with Explore.jobs = 1; shards = 1 }

(* The Table 2 catalogue of the bench harness: few enough designs that
   the Full strategy simulates every one of them. *)
let table2_config =
  serial
    {
      Explore.apex =
        {
          Mx_apex.Explore.caches =
            (match Mx_mem.Module_lib.caches with
            | a :: _ :: _ :: _ :: b :: _ -> [ a; b ]
            | l -> l);
          include_no_cache = false;
          sbufs = [ List.hd Mx_mem.Module_lib.stream_buffers ];
          lldmas = [ List.hd Mx_mem.Module_lib.lldmas ];
          l2s = [];
          victims = [];
          write_buffers = [];
          sram_budget = 4 * 1024;
          max_selected = 6;
        };
      onchip =
        List.filter
          (fun (c : Mx_connect.Component.t) ->
            List.mem c.Mx_connect.Component.name
              [ "mux32"; "apb32"; "asb32"; "ahb32" ])
          Mx_connect.Component.onchip_library;
      offchip =
        List.filter
          (fun (c : Mx_connect.Component.t) ->
            c.Mx_connect.Component.name = "off32")
          Mx_connect.Component.offchip_library;
      max_designs_per_level = 512;
      phase1_keep = 16;
      sample = None;
      refine_top = 0;
      jobs = 1;
      shards = 1;
      archive_eps = 0.0;
      archive_capacity = None;
    }

let specs =
  [
    {
      name = "explore-compress";
      generate = Mx_trace.Kern_compress.generate;
      scale = 100_000;
      config = serial Explore.default_config;
      kind = Explore_run;
    };
    {
      name = "explore-li-sampled";
      generate = Mx_trace.Kern_li.generate;
      scale = 100_000;
      config =
        serial
          { Explore.default_config with Explore.sample = Some (1000, 9000) };
      kind = Explore_run;
    };
    {
      name = "strategies-table2";
      generate = Mx_trace.Kern_compress.generate;
      scale = 12_000;
      config = table2_config;
      kind = Strategies;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* What a run produced: enough to check it and to count its work. *)
type outcome = {
  workload : Mx_trace.Workload.t;
  fronts : (string * Design.t list) list;
      (** named cost/latency fronts; the first one is spot-checked *)
  ranked : Design.t list;
      (** designs carrying both an estimate and a simulation *)
  n_estimates : int;
  n_simulations : int;
  n_refined : int;
  strategies : (Strategy.outcome * Strategy.outcome * Strategy.outcome) option;
      (** Full, Pruned, Neighborhood *)
  disk_hits : int;
}

let open_store dir =
  match Eval.open_persist ~dir with
  | Ok () -> ()
  | Error e -> failwith ("cannot open the result store: " ^ e)

let disk_hits () =
  match Eval.persist_stats () with
  | Some s -> s.Mx_util.Persist_cache.get_hits
  | None -> 0

let is_exact (d : Design.t) =
  match d.Design.sim with Some s -> s.Mx_sim.Sim_result.exact | None -> false

let explore_outcome (config : Explore.config) w ~front ~simulated
    ~n_estimates =
  {
    workload = w;
    fronts = [ ("front", front) ];
    ranked = simulated;
    n_estimates;
    n_simulations = List.length simulated;
    n_refined =
      (if config.Explore.sample = None then 0
       else List.length (List.filter is_exact simulated));
    strategies = None;
    disk_hits = 0;
  }

let strategies_outcome w ~full ~pruned ~nbhd ~disk_hits =
  {
    workload = w;
    fronts =
      [
        ("full", full.Strategy.pareto_cost_perf);
        ("pruned", pruned.Strategy.pareto_cost_perf);
        ("neighborhood", nbhd.Strategy.pareto_cost_perf);
      ];
    ranked = pruned.Strategy.designs;
    n_estimates = pruned.Strategy.n_estimates + nbhd.Strategy.n_estimates;
    n_simulations =
      full.Strategy.n_simulations + pruned.Strategy.n_simulations
      + nbhd.Strategy.n_simulations;
    n_refined = 0;
    strategies = Some (full, pruned, nbhd);
    disk_hits;
  }

(* -- the timed (untraced) runs --------------------------------------------- *)

let run spec ~trace ~store =
  let w = Mx_trace.Trace_io.load ~path:trace in
  let config = spec.config in
  match spec.kind with
  | Explore_run ->
    let r = Explore.run ~config w in
    explore_outcome config w ~front:r.Explore.pareto_cost_perf
      ~simulated:r.Explore.simulated ~n_estimates:r.Explore.n_estimates
  | Strategies ->
    (* Full computes and writes every result; a simulated restart (store
       closed, fresh hot tier, store reopened) then serves Pruned and
       Neighborhood from disk *)
    open_store store;
    let full = Strategy.run ~config Strategy.Full w in
    Eval.close_persist ();
    Eval.set_cache_capacity Eval.default_cache_capacity;
    open_store store;
    let pruned = Strategy.run ~config Strategy.Pruned w in
    let nbhd = Strategy.run ~config Strategy.Neighborhood w in
    let disk_hits = disk_hits () in
    Eval.close_persist ();
    strategies_outcome w ~full ~pruned ~nbhd ~disk_hits

(* -- the traced run -----------------------------------------------------------

   The same work as [run], re-executed through the public stage
   functions so that each call gets its own span.  Every simulation-tier
   call is recorded twice: as a span named after its cache provenance,
   and in [sim_calls] for the per-architecture accounting. *)

let span = Tracer.with_span

type sim_call = {
  arch : Mx_mem.Mem_arch.t;
  fidelity : Eval.fidelity;
  prov : Eval.provenance;
  seconds : float;
  alloc_bytes : float;
}

let sim_calls : sim_call list ref = ref []

(* Phase I inputs of every traced exploration, for the estimate probe *)
let phase1_inputs : (Mx_apex.Explore.candidate * Design.t list) list ref =
  ref []

(* designs Phase I selection kept for Phase II *)
let selected = ref 0

let traced_eval ~fidelity w (d : Design.t) =
  let sim, prov =
    span "eval"
      ~rename:(fun (_, p) -> "eval." ^ Eval.provenance_tag p)
      (fun () ->
        Eval.eval_prov ~fidelity ~workload:w ~arch:d.Design.mem
          ~conn:d.Design.conn ())
  in
  let s = Tracer.last () in
  sim_calls :=
    {
      arch = d.Design.mem;
      fidelity;
      prov;
      seconds = Tracer.duration s;
      alloc_bytes = s.Tracer.alloc_bytes;
    }
    :: !sim_calls;
  Design.with_sim d sim

let make_archive (config : Explore.config) =
  Archive.create
    ~axes:[ Design.cost; Design.latency ]
    ~eps:config.Explore.archive_eps ?capacity:config.Explore.archive_capacity
    ()

let evaluate_all ~fidelity w archive designs =
  List.map
    (fun d ->
      let d = traced_eval ~fidelity w d in
      span "archive.insert" (fun () -> ignore (Archive.insert archive d));
      d)
    designs

(* [Explore.run], stage by stage *)
let traced_explore (config : Explore.config) w =
  let profile = span "trace.profile" (fun () -> Mx_trace.Profile.analyze w) in
  let cands =
    span "apex" (fun () ->
        Mx_apex.Explore.select ~config:config.Explore.apex profile)
  in
  let per_arch =
    span "phase1" (fun () ->
        match Explore.phase1 config w cands with
        | Some per_arch -> per_arch
        | None -> failwith "Phase I stopped without an interrupt")
  in
  phase1_inputs := !phase1_inputs @ List.combine cands per_arch;
  let survivors =
    List.concat_map
      (fun ests -> span "select" (fun () -> Explore.local_promising config ests))
      per_arch
  in
  selected := !selected + List.length survivors;
  let archive = make_archive config in
  let simulated =
    evaluate_all
      ~fidelity:(Explore.fidelity_of_sample config.Explore.sample)
      w archive survivors
  in
  let simulated, front =
    match config.Explore.sample with
    | Some _ when config.Explore.refine_top > 0 ->
      let to_refine =
        List.filteri
          (fun i _ -> i < config.Explore.refine_top)
          (Archive.front archive)
      in
      let refined = List.map (traced_eval ~fidelity:Eval.Exact w) to_refine in
      let by_key = Hashtbl.create 16 in
      List.iter
        (fun d -> Hashtbl.replace by_key (Design.structural_key d) d)
        refined;
      let spliced =
        List.map
          (fun d ->
            Option.value ~default:d
              (Hashtbl.find_opt by_key (Design.structural_key d)))
          simulated
      in
      let replay =
        span "archive.replay" (fun () ->
            Archive.of_list
              ~axes:[ Design.cost; Design.latency ]
              ~eps:config.Explore.archive_eps
              ?capacity:config.Explore.archive_capacity spliced)
      in
      (spliced, Archive.front replay)
    | _ -> (simulated, Archive.front archive)
  in
  explore_outcome config w ~front ~simulated
    ~n_estimates:(List.fold_left (fun n l -> n + List.length l) 0 per_arch)

(* [Strategy.run Full], stage by stage *)
let traced_full (config : Explore.config) w =
  let t0 = Unix.gettimeofday () in
  let profile = span "trace.profile" (fun () -> Mx_trace.Profile.analyze w) in
  let cands =
    span "apex" (fun () ->
        Mx_apex.Explore.explore ~config:config.Explore.apex profile)
  in
  let designs =
    span "full.enumerate" (fun () ->
        List.concat_map
          (fun (cand : Mx_apex.Explore.candidate) ->
            let brg =
              Mx_connect.Brg.build cand.Mx_apex.Explore.arch
                cand.Mx_apex.Explore.profile
            in
            Mx_connect.Assign.enumerate_levels
              ~max_designs_per_level:config.Explore.max_designs_per_level
              ~onchip:config.Explore.onchip ~offchip:config.Explore.offchip
              brg.Mx_connect.Brg.channels
            |> List.map (fun conn ->
                   Design.make ~workload_name:w.Mx_trace.Workload.name
                     ~mem:cand.Mx_apex.Explore.arch ~conn ()))
          cands)
  in
  let archive = make_archive config in
  let simulated =
    evaluate_all
      ~fidelity:(Explore.fidelity_of_sample config.Explore.sample)
      w archive designs
  in
  {
    Strategy.kind = Strategy.Full;
    designs = simulated;
    pareto_cost_perf = Archive.front archive;
    n_estimates = 0;
    n_simulations = List.length simulated;
    wall_seconds = Unix.gettimeofday () -. t0;
  }

type traced = {
  outcome : outcome;
  records : int;  (** results the store held after Full *)
}

let run_traced spec ~trace ~store =
  sim_calls := [];
  phase1_inputs := [];
  selected := 0;
  let w = span "trace.load" (fun () -> Mx_trace.Trace_io.load ~path:trace) in
  let config = spec.config in
  match spec.kind with
  | Explore_run -> { outcome = traced_explore config w; records = 0 }
  | Strategies ->
    span "persist.open" (fun () -> open_store store);
    let full = span "strategy.full" (fun () -> traced_full config w) in
    let records =
      match Eval.persist_stats () with
      | Some s -> s.Mx_util.Persist_cache.appended
      | None -> 0
    in
    span "persist.close" Eval.close_persist;
    Eval.set_cache_capacity Eval.default_cache_capacity;
    span "persist.reopen" (fun () -> open_store store);
    let pruned =
      span "strategy.pruned" (fun () ->
          let t0 = Unix.gettimeofday () in
          let o = traced_explore config w in
          {
            Strategy.kind = Strategy.Pruned;
            designs = o.ranked;
            pareto_cost_perf = List.assoc "front" o.fronts;
            n_estimates = o.n_estimates;
            n_simulations = o.n_simulations;
            wall_seconds = Unix.gettimeofday () -. t0;
          })
    in
    let nbhd =
      span "strategy.neighborhood" (fun () ->
          Strategy.run ~config Strategy.Neighborhood w)
    in
    let disk_hits = disk_hits () in
    span "persist.close" Eval.close_persist;
    { outcome = strategies_outcome w ~full ~pruned ~nbhd ~disk_hits; records }
