module Component = Mx_connect.Component
module Conn_arch = Mx_connect.Conn_arch
module Cluster = Mx_connect.Cluster
module Brg = Mx_connect.Brg
module Ev = Mx_util.Event_log
module Pareto = Mx_util.Pareto

type config = {
  apex : Mx_apex.Explore.config;
  onchip : Component.t list;
  offchip : Component.t list;
  max_designs_per_level : int;
  phase1_keep : int;
  sample : (int * int) option;
  refine_top : int;
  jobs : int;
  shards : int;
  archive_eps : float;
  archive_capacity : int option;
}

let default_config =
  {
    apex = Mx_apex.Explore.default_config;
    onchip = Component.onchip_library;
    offchip = Component.offchip_library;
    max_designs_per_level = 4096;
    phase1_keep = 24;
    sample = None;
    refine_top = 16;
    jobs = Mx_util.Task_pool.default_jobs ();
    shards = 1;
    archive_eps = 0.0;
    archive_capacity = None;
  }

let reduced_config =
  {
    apex = Mx_apex.Explore.reduced_config;
    onchip =
      List.filter
        (fun (c : Component.t) ->
          List.mem c.Component.name [ "mux32"; "apb32"; "asb32"; "ahb32" ])
        Component.onchip_library;
    offchip =
      List.filter
        (fun (c : Component.t) -> c.Component.name = "off32")
        Component.offchip_library;
    max_designs_per_level = 1024;
    phase1_keep = 12;
    sample = None;
    refine_top = 8;
    jobs = Mx_util.Task_pool.default_jobs ();
    shards = 1;
    archive_eps = 0.0;
    archive_capacity = None;
  }

type result = {
  workload : Mx_trace.Workload.t;
  apex_selected : Mx_apex.Explore.candidate list;
  estimated : Design.t list;
  simulated : Design.t list;
  pareto_cost_perf : Design.t list;
  n_estimates : int;
  n_simulations : int;
  wall_seconds : float;
  interrupted : bool;
}

let never = fun () -> false

(* Estimates are cheap (micro- to milliseconds each), so chunk them to
   amortise dispatch; simulations are seconds each, so they are
   dispatched one by one for load balance. *)
let estimate_chunk = 32

(* -- the anytime archive ------------------------------------------------------

   Phase II results are inserted into a [Pareto.Archive] as they commit
   (in deterministic input order — see [Task_pool.parallel_map_commit]),
   so the cost/latency front can be emitted at any moment and an
   interrupted run still returns a valid front of exactly the committed
   prefix.  With the default [eps = 0] / unbounded configuration the
   final front is byte-identical to [Pareto.front2] over the full
   population — the pre-shard behaviour. *)

let front_axes = [ Design.cost; Design.latency ]

let make_archive cfg =
  Pareto.Archive.create ~axes:front_axes ~eps:cfg.archive_eps
    ?capacity:cfg.archive_capacity ()

(* Archive lifecycle events are emitted at commit time on the calling
   domain, so their order — like every design.* event — is a pure
   function of the input stream and stays identical across jobs
   levels. *)
let archive_insert archive (d : Design.t) =
  let outcome = Pareto.Archive.insert archive d in
  let m = Mx_util.Metrics.global in
  (match outcome with
  | Pareto.Archive.Rejected -> Mx_util.Metrics.incr m "explore.archive.rejects"
  | Pareto.Archive.Added { removed; evicted } ->
    Mx_util.Metrics.incr m "explore.archive.inserts";
    Mx_util.Metrics.incr m
      ~by:(List.length removed + List.length evicted)
      "explore.archive.evictions");
  if Ev.is_on Ev.global then begin
    let key = Design.structural_key d in
    match outcome with
    | Pareto.Archive.Rejected ->
      Ev.emit Ev.global ~stage:"archive" "archive.reject"
        [ ("design", Ev.Str key) ]
    | Pareto.Archive.Added { removed; evicted } ->
      Ev.emit Ev.global ~stage:"archive" "archive.insert"
        [ ("design", Ev.Str key) ];
      List.iter
        (fun (r : Design.t) ->
          Ev.emit Ev.global ~stage:"archive" "archive.evict"
            [
              ("design", Ev.Str (Design.structural_key r));
              ("reason", Ev.Str "dominated");
              ("by", Ev.Str key);
            ])
        removed;
      List.iter
        (fun (r : Design.t) ->
          Ev.emit Ev.global ~stage:"archive" "archive.evict"
            [
              ("design", Ev.Str (Design.structural_key r));
              ("reason", Ev.Str "capacity");
            ])
        evicted
  end

(* -- Phase I: the shard work-queue --------------------------------------------

   Each selected memory architecture is planned (serially, on the
   calling domain: BRG, clustering levels, shard split — so cluster.*,
   assign.* and shard.planned events are deterministic), the shards of
   every architecture are concatenated into one work-queue, and the
   queue is consumed by the task pool.  Shard enumeration is silent on
   the workers; results commit in queue order, so the merged per-
   architecture design stream is byte-identical to the monolithic
   [Assign.enumerate_levels] whatever the shard count or jobs level. *)

type planned = {
  cand : Mx_apex.Explore.candidate;
  shards : Shard.resolved list;
}

let plan_candidate (cfg : config) ~workload_fp
    (cand : Mx_apex.Explore.candidate) =
  let arch = cand.Mx_apex.Explore.arch in
  let brg = Brg.build arch cand.Mx_apex.Explore.profile in
  let levels =
    Cluster.levels_ordered Cluster.Lowest_bandwidth_first brg.Brg.channels
  in
  let shards =
    Shard.plan ~shards:cfg.shards
      ~max_designs_per_level:cfg.max_designs_per_level ~workload_fp
      ~arch_label:arch.Mx_mem.Mem_arch.label
      ~arch_fp:(Mx_mem.Mem_arch.fingerprint arch)
      ~onchip:cfg.onchip ~offchip:cfg.offchip levels
  in
  { cand; shards }

let phase1 ?(interrupt = never) cfg workload cands =
  let metrics = Mx_util.Metrics.global in
  let workload_fp = Mx_trace.Workload.fingerprint workload in
  let planned =
    Mx_util.Metrics.with_span metrics "explore.plan" (fun () ->
        List.map (plan_candidate cfg ~workload_fp) cands)
  in
  (* the global queue: every architecture's shards, in plan order *)
  let queue =
    List.concat_map
      (fun p -> List.map (fun s -> (p.cand, s)) p.shards)
      planned
  in
  let n_shards = List.length queue in
  Mx_util.Snapshot.add_shards_planned n_shards;
  let slices = Array.make (max 1 n_shards) [] in
  let committed =
    Mx_util.Task_pool.parallel_map_commit ~jobs:cfg.jobs ~chunk:1
      ~should_stop:interrupt
      ~commit:(fun i (_, shard) conns ->
        slices.(i) <- conns;
        Mx_util.Snapshot.shard_committed ();
        Mx_util.Metrics.incr metrics "shard.finished";
        if Ev.is_on Ev.global then
          Ev.emit Ev.global ~stage:"shard" "shard.finished"
            [
              ("shard", Ev.Str (Shard.fingerprint (Shard.descriptor shard)));
              ("designs", Ev.Int (List.length conns));
            ])
      (fun (_, shard) ->
        (* which domain ran a shard — and whether a pool worker stole it
           from the caller — is scheduling, hence the sched. segment; it
           gets its own stage so the per-stage seq numbering of the
           deterministic shard.* records is not perturbed by it *)
        if Ev.is_on Ev.global then
          Ev.emit Ev.global ~stage:"sched"
            (if Mx_util.Task_pool.in_worker_domain () then
               "shard.sched.stolen"
             else "shard.sched.started")
            [
              ("shard", Ev.Str (Shard.fingerprint (Shard.descriptor shard)));
              ("domain", Ev.Int (Domain.self () :> int));
            ];
        Shard.enumerate shard)
      queue
  in
  if committed < n_shards then None
  else
    (* merge and estimate per architecture, in candidate order *)
    let offset = ref 0 in
    Some
      (List.map
         (fun p ->
           let label = p.cand.Mx_apex.Explore.arch.Mx_mem.Mem_arch.label in
           Mx_util.Metrics.with_span metrics ("phase1:" ^ label) @@ fun () ->
           let kept =
             List.concat_map
               (fun shard ->
                 let i = !offset in
                 incr offset;
                 let fp = Shard.fingerprint (Shard.descriptor shard) in
                 List.map (fun conn -> (fp, conn)) slices.(i))
               p.shards
           in
           (* levels differ in cluster count and one level's product
              never repeats an assignment, so every design is kept *)
           if Ev.is_on Ev.global then
             List.iter
               (fun (_, conn) ->
                 Ev.emit Ev.global ~stage:"assign" "assign.kept"
                   [ ("conn", Ev.Str (Conn_arch.describe conn)) ])
               kept;
           Mx_util.Metrics.incr metrics ~by:(List.length kept) "assign.kept";
           (* one plan per architecture, shared read-only by the domains;
              an estimate is cheaper to compute than to look up, so none
              enters the result tiers *)
           let arch = p.cand.Mx_apex.Explore.arch in
           let pairs =
             match kept with
             | [] -> []
             | _ ->
               let plan =
                 Mx_sim.Estimator.prepare ~workload ~arch
                   ~profile:p.cand.Mx_apex.Explore.profile
               in
               Mx_util.Task_pool.parallel_map ~jobs:cfg.jobs
                 ~chunk:estimate_chunk
                 (fun (shard_fp, conn) ->
                   ( Design.make ~workload_name:workload.Mx_trace.Workload.name
                       ~mem:arch ~conn
                       ~est:(Mx_sim.Estimator.run plan ~conn)
                       (),
                     shard_fp ))
                 kept
           in
           if Ev.is_on Ev.global then begin
             List.iter
               (fun ((d : Design.t), _) ->
                 Ev.emit Ev.global ~stage:"phase1" "design.created"
                   [
                     ("design", Ev.Str (Design.structural_key d));
                     ("id", Ev.Str (Design.id d));
                     ("arch", Ev.Str label);
                   ])
               pairs;
             let ftag = Mx_sim.Eval.fidelity_tag Mx_sim.Eval.Estimate in
             let source = Mx_sim.Eval.provenance_tag Mx_sim.Eval.Computed in
             List.iter
               (fun ((d : Design.t), shard_fp) ->
                 let key = Design.structural_key d in
                 Ev.emit Ev.global ~stage:"phase1" "design.evaluated"
                   [ ("design", Ev.Str key); ("fidelity", Ev.Str ftag) ];
                 Ev.emit Ev.global ~stage:"phase1" "eval.cache.provenance"
                   [
                     ("design", Ev.Str key);
                     ("fidelity", Ev.Str ftag);
                     ("source", Ev.Str source);
                     ("shard", Ev.Str shard_fp);
                   ])
               pairs
           end;
           let ests = List.map fst pairs in
           Mx_util.Snapshot.eval_committed ~by:(List.length ests) ();
           Mx_util.Metrics.incr metrics ~by:(List.length ests)
             "explore.estimates";
           ests)
         planned)

let connectivity_exploration cfg workload (cand : Mx_apex.Explore.candidate) =
  match phase1 cfg workload [ cand ] with
  | Some [ ests ] -> ests
  | _ -> assert false (* never interrupts, one candidate in = one list out *)

let axes = [ Design.cost; Design.latency; Design.energy ]

let thin_by_cost ~keep designs =
  let n = List.length designs in
  if n <= keep || keep <= 0 then designs
  else begin
    let arr = Array.of_list (Mx_util.Pareto.sort_by Design.cost designs) in
    if keep = 1 then [ arr.(0) ]
    else List.init keep (fun i -> arr.(i * (n - 1) / (keep - 1)))
  end

let local_promising cfg designs =
  let front = Mx_util.Pareto.front ~axes designs in
  let kept = thin_by_cost ~keep:cfg.phase1_keep front in
  if Mx_util.Metrics.is_on Mx_util.Metrics.global then begin
    Mx_util.Metrics.observe Mx_util.Metrics.global ~unit_:"designs"
      "explore.local_front_size"
      (float_of_int (List.length front));
    Mx_util.Metrics.incr Mx_util.Metrics.global ~by:(List.length kept)
      "explore.phase1_kept"
  end;
  (* terminal Phase I verdict for every input design: kept, thinned off
     the front by the cost subsample, or pruned — with the competitor
     that dominates it (pareto fronts preserve physical identity, so
     [memq] is the membership test) *)
  if Ev.is_on Ev.global then
    List.iter
      (fun (d : Design.t) ->
        let key = Design.structural_key d in
        if List.memq d kept then
          Ev.emit Ev.global ~stage:"phase1" "design.kept"
            [ ("design", Ev.Str key) ]
        else if List.memq d front then
          Ev.emit Ev.global ~stage:"phase1" "design.thinned"
            [ ("design", Ev.Str key) ]
        else begin
          let dominator =
            match
              List.find_opt
                (fun e -> e != d && Mx_util.Pareto.dominates ~axes e d)
                designs
            with
            | Some e -> Design.structural_key e
            | None -> ""
          in
          Ev.emit Ev.global ~stage:"phase1" "design.pruned"
            [ ("design", Ev.Str key); ("dominated_by", Ev.Str dominator) ]
        end)
      designs;
  kept

let fidelity_of_sample = function
  | None -> Mx_sim.Eval.Exact
  | Some (on, off) -> Mx_sim.Eval.Sampled (on, off)

let evaluate_designs cfg workload ~stage ~fidelity ?(interrupt = never)
    ?archive designs =
  let ftag = Mx_sim.Eval.fidelity_tag fidelity in
  let acc = ref [] in
  let _committed =
    Mx_util.Task_pool.parallel_map_commit ~jobs:cfg.jobs ~chunk:1
      ~should_stop:interrupt
      ~commit:(fun _ _ ((d : Design.t), prov) ->
        if Ev.is_on Ev.global then begin
          let key = Design.structural_key d in
          Ev.emit Ev.global ~stage "design.evaluated"
            [ ("design", Ev.Str key); ("fidelity", Ev.Str ftag) ];
          Ev.emit Ev.global ~stage "eval.cache.provenance"
            [
              ("design", Ev.Str key);
              ("fidelity", Ev.Str ftag);
              ("source", Ev.Str (Mx_sim.Eval.provenance_tag prov));
            ]
        end;
        Option.iter (fun a -> archive_insert a d) archive;
        Mx_util.Snapshot.eval_committed
          ?archive:(Option.map Pareto.Archive.size archive) ();
        acc := d :: !acc)
      (fun (d : Design.t) ->
        let sim, prov =
          Mx_sim.Eval.eval_prov ~fidelity ~workload ~arch:d.Design.mem
            ~conn:d.Design.conn ()
        in
        (Design.with_sim d sim, prov))
      designs
  in
  List.rev !acc

let run ?(config = default_config) ?(interrupt = never) workload =
  let metrics = Mx_util.Metrics.global in
  Mx_util.Metrics.with_span metrics
    ("explore.run:" ^ workload.Mx_trace.Workload.name)
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let apex_selected =
    Mx_util.Snapshot.set_phase "apex.select";
    Mx_util.Metrics.with_span metrics "apex.select" (fun () ->
        let profile = Mx_trace.Profile.analyze workload in
        Mx_apex.Explore.select ~config:config.apex profile)
  in
  Mx_util.Metrics.incr metrics ~by:(List.length apex_selected)
    "explore.architectures";
  (* Phase I: the sharded connectivity enumeration of every selected
     memory architecture runs on the task pool; the merge and the
     estimate fan-out happen per architecture in deterministic order. *)
  let per_arch =
    Mx_util.Snapshot.set_phase "explore.phase1";
    Mx_util.Metrics.with_span metrics "explore.phase1" (fun () ->
        phase1 ~interrupt config workload apex_selected)
  in
  match per_arch with
  | None ->
    (* interrupted while the shard queue was draining: there are no
       simulated designs yet, so the valid anytime front is empty *)
    Mx_util.Snapshot.set_phase "interrupted";
    {
      workload;
      apex_selected;
      estimated = [];
      simulated = [];
      pareto_cost_perf = [];
      n_estimates = 0;
      n_simulations = 0;
      wall_seconds = Unix.gettimeofday () -. t0;
      interrupted = true;
    }
  | Some per_arch ->
    let survivors = List.concat_map (local_promising config) per_arch in
    let estimated = List.concat per_arch in
    (* Phase II: simulation of the combined candidates (optionally
       time-sampled); every committed result feeds the anytime archive,
       so interrupting mid-phase still leaves a valid front of the
       committed prefix *)
    let archive = make_archive config in
    let simulated =
      Mx_util.Snapshot.set_phase "explore.phase2";
      Mx_util.Metrics.with_span metrics "explore.phase2" (fun () ->
          let sims =
            evaluate_designs config workload ~stage:"phase2"
              ~fidelity:(fidelity_of_sample config.sample)
              ~interrupt ~archive survivors
          in
          Mx_util.Metrics.incr metrics ~by:(List.length sims)
            "explore.simulations";
          sims)
    in
    let phase2_interrupted = List.length simulated < List.length survivors in
    (* with sampling enabled the most promising sampled designs are
       refined by exact simulation, as in the paper *)
    let simulated, pareto_cost_perf, interrupted =
      match config.sample with
      | Some _ when config.refine_top > 0 && not phase2_interrupted ->
        Mx_util.Snapshot.set_phase "explore.refine";
        Mx_util.Metrics.with_span metrics "explore.refine" (fun () ->
            let front = Pareto.Archive.front archive in
            let to_refine =
              List.filteri (fun i _ -> i < config.refine_top) front
            in
            Mx_util.Metrics.incr metrics ~by:(List.length to_refine)
              "explore.refined";
            if Ev.is_on Ev.global then
              List.iter
                (fun (d : Design.t) ->
                  Ev.emit Ev.global ~stage:"refine" "design.refined"
                    [ ("design", Ev.Str (Design.structural_key d)) ])
                to_refine;
            (* re-simulate only the chosen designs, then splice the exact
               results back over their sampled counterparts by structural
               key — the rest of the population is untouched *)
            let refined =
              evaluate_designs config workload ~stage:"refine"
                ~fidelity:Mx_sim.Eval.Exact ~interrupt to_refine
            in
            let refine_interrupted =
              List.length refined < List.length to_refine
            in
            let by_key = Hashtbl.create (max 1 (List.length refined)) in
            List.iter
              (fun d -> Hashtbl.replace by_key (Design.structural_key d) d)
              refined;
            let spliced =
              List.map
                (fun d ->
                  match
                    Hashtbl.find_opt by_key (Design.structural_key d)
                  with
                  | Some r -> r
                  | None -> d)
                simulated
            in
            (* the splice invalidated the archived sampled results:
               replay the spliced stream through a fresh (silent)
               archive with the same thinning parameters *)
            let replay =
              Pareto.Archive.of_list ~axes:front_axes
                ~eps:config.archive_eps ?capacity:config.archive_capacity
                spliced
            in
            (spliced, Pareto.Archive.front replay, refine_interrupted))
      | _ -> (simulated, Pareto.Archive.front archive, phase2_interrupted)
    in
    Mx_util.Snapshot.set_phase (if interrupted then "interrupted" else "done");
    Mx_util.Metrics.incr metrics ~by:(List.length pareto_cost_perf)
      "explore.pareto_points";
    if Ev.is_on Ev.global then
      List.iter
        (fun (d : Design.t) ->
          Ev.emit Ev.global ~stage:"select" "design.selected"
            [
              ("design", Ev.Str (Design.structural_key d));
              ("scenario", Ev.Str "cost_perf");
            ])
        pareto_cost_perf;
    {
      workload;
      apex_selected;
      estimated;
      simulated;
      pareto_cost_perf;
      n_estimates = List.length estimated;
      n_simulations = List.length simulated;
      wall_seconds = Unix.gettimeofday () -. t0;
      interrupted;
    }
