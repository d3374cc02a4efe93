module Component = Mx_connect.Component
module Conn_arch = Mx_connect.Conn_arch
module Cluster = Mx_connect.Cluster
module Brg = Mx_connect.Brg
module Conn_cost = Mx_connect.Conn_cost
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
  simulated : Design.t list;
  pareto_cost_perf : Design.t list;
  n_estimates : int;
  n_simulations : int;
  wall_seconds : float;
  interrupted : bool;
}

let never = fun () -> false

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

(* -- Phase I: one stream per shard --------------------------------------------

   Each selected memory architecture is planned serially on the calling
   domain — BRG, clustering levels, shard split and one estimator plan,
   so cluster.*, assign.* and shard.planned events are deterministic.
   The shards of every architecture form one work-queue, drained once
   by the task pool.  A shard task walks its choice vectors and
   estimates each from a level plan of its own; what it keeps is up to
   the sink:
   - the collect sink ([phase1]) keeps every connectivity with its
     estimate, for the callers that need them all;
   - the front sink ([promising]) keeps the shard's (cost, latency,
     energy) front, each point named by its position in its
     architecture's stream, and builds designs for the points of the
     architecture's merged front only.
   Results are taken in queue order, so each architecture's stream,
   and so its front, is byte-identical whatever the shard count or
   jobs level. *)

type task = {
  cand : Mx_apex.Explore.candidate;
  shard : Shard.t;
  offset : int;  (** the stream position of the shard's first vector *)
  plan : (Mx_sim.Estimator.plan, exn) Stdlib.result;
}

let cap t = Shard.cap t.shard
let shard_fp t = Shard.fingerprint t.shard

(* one architecture's queue entries, in plan order *)
let plan_candidate (cfg : config) workload ~workload_fp
    (cand : Mx_apex.Explore.candidate) =
  let arch = cand.Mx_apex.Explore.arch in
  let profile = cand.Mx_apex.Explore.profile in
  let brg = Brg.build arch profile in
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
  match shards with
  | [] -> []
  | _ ->
    (* one plan per architecture, shared read-only by the domains; its
       failure is raised when the caller reaches the architecture *)
    let plan =
      match Mx_sim.Estimator.prepare ~workload ~arch ~profile with
      | plan -> Ok plan
      | exception e -> Error e
    in
    let offset = ref 0 in
    List.map
      (fun shard ->
        let t = { cand; shard; offset = !offset; plan } in
        offset := !offset + cap t;
        t)
      shards

(* Plan every candidate, drain the queue once — [work] runs each task on
   any domain — and hand each architecture's tasks with their results,
   in candidate and then queue order, to [finish] on the calling domain.
   A failed task is kept as its exception and raised when [finish]'s
   turn reaches its architecture, so an interrupted drain never raises:
   it returns [None]. *)
let stream ~interrupt cfg workload cands ~work ~finish =
  let metrics = Mx_util.Metrics.global in
  let workload_fp = Mx_trace.Workload.fingerprint workload in
  let per_arch =
    Mx_util.Metrics.with_span metrics "explore.plan" (fun () ->
        List.map (plan_candidate cfg workload ~workload_fp) cands)
  in
  let queue = List.concat per_arch in
  let n_shards = List.length queue in
  Mx_util.Snapshot.add_shards_planned n_shards;
  let results = Array.make n_shards None in
  let committed =
    Mx_util.Task_pool.parallel_map_commit ~jobs:cfg.jobs ~chunk:1
      ~should_stop:interrupt
      ~commit:(fun i t r ->
        results.(i) <- Some r;
        Mx_util.Snapshot.shard_committed ();
        Mx_util.Metrics.incr metrics "shard.finished";
        if Ev.is_on Ev.global then
          Ev.emit Ev.global ~stage:"shard" "shard.finished"
            [ ("shard", Ev.Str (shard_fp t)); ("designs", Ev.Int (cap t)) ])
      (fun t ->
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
              ("shard", Ev.Str (shard_fp t));
              ("domain", Ev.Int (Domain.self () :> int));
            ];
        match t.plan with
        | Error e -> Error e
        | Ok plan -> ( try Ok (work plan t) with e -> Error e))
      queue
  in
  if committed < n_shards then None
  else begin
    let next = ref 0 in
    Some
      (List.map2
         (fun (cand : Mx_apex.Explore.candidate) tasks ->
           let label = cand.Mx_apex.Explore.arch.Mx_mem.Mem_arch.label in
           Mx_util.Metrics.with_span metrics ("phase1:" ^ label) @@ fun () ->
           let done_ =
             List.map
               (fun t ->
                 let r = results.(!next) in
                 incr next;
                 match r with
                 | Some (Ok r) -> (t, r)
                 | Some (Error e) -> raise e
                 | None -> assert false (* every task committed *))
               tasks
           in
           let n = List.fold_left (fun n t -> n + cap t) 0 tasks in
           Mx_util.Metrics.incr metrics ~by:n "assign.kept";
           let r = finish cand done_ in
           Mx_util.Snapshot.eval_committed ~by:n ();
           Mx_util.Metrics.incr metrics ~by:n "explore.estimates";
           (r, n))
         cands per_arch)
  end

let phase1 ?(interrupt = never) cfg workload cands =
  let workload_name = workload.Mx_trace.Workload.name in
  stream ~interrupt cfg workload cands
    ~work:(fun plan t ->
      let lv = Mx_sim.Estimator.level plan (Shard.clusters t.shard) in
      let out = ref [] in
      Shard.iter t.shard (fun _ v ->
          Mx_sim.Estimator.assess lv v;
          out :=
            (Shard.connectivity t.shard v, Mx_sim.Estimator.result lv) :: !out);
      List.rev !out)
    ~finish:(fun cand done_ ->
      let mem = cand.Mx_apex.Explore.arch in
      let label = mem.Mx_mem.Mem_arch.label in
      (* levels differ in cluster count and one level's product never
         repeats an assignment, so every design is kept *)
      let kept =
        List.concat_map
          (fun (t, pairs) ->
            let fp = shard_fp t in
            List.map
              (fun (conn, est) ->
                (fp, Design.make ~workload_name ~mem ~conn ~est ()))
              pairs)
          done_
      in
      if Ev.is_on Ev.global then begin
        List.iter
          (fun (_, (d : Design.t)) ->
            Ev.emit Ev.global ~stage:"assign" "assign.kept"
              [ ("conn", Ev.Str (Conn_arch.describe d.Design.conn)) ])
          kept;
        List.iter
          (fun (_, (d : Design.t)) ->
            Ev.emit Ev.global ~stage:"phase1" "design.created"
              [
                ("design", Ev.Str (Design.structural_key d));
                ("id", Ev.Str (Design.id d));
                ("arch", Ev.Str label);
              ])
          kept;
        (* "e": an estimate, outside the simulated rungs of [Eval] *)
        let ftag = "e" in
        let source = Mx_sim.Eval.provenance_tag Mx_sim.Eval.Computed in
        List.iter
          (fun (shard_fp, (d : Design.t)) ->
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
          kept
      end;
      List.map snd kept)
  |> Option.map (List.map fst)

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

(* Phase I selection once the front is known: both sinks end here *)
let thin_front cfg front =
  let kept = thin_by_cost ~keep:cfg.phase1_keep front in
  if Mx_util.Metrics.is_on Mx_util.Metrics.global then begin
    Mx_util.Metrics.observe Mx_util.Metrics.global ~unit_:"designs"
      "explore.local_front_size"
      (float_of_int (List.length front));
    Mx_util.Metrics.incr Mx_util.Metrics.global ~by:(List.length kept)
      "explore.phase1_kept"
  end;
  kept

let local_promising cfg designs =
  let front = Mx_util.Pareto.front ~axes designs in
  let kept = thin_front cfg front in
  (* terminal Phase I verdict for every input design: kept, thinned off
     the front by the cost subsample, or pruned — with the first front
     member that dominates it, which exists because dominance is
     transitive (pareto fronts preserve physical identity, so [memq] is
     the membership test) *)
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
            List.find (fun e -> Mx_util.Pareto.dominates ~axes e d) front
          in
          Ev.emit Ev.global ~stage:"phase1" "design.pruned"
            [
              ("design", Ev.Str key);
              ("dominated_by", Ev.Str (Design.structural_key dominator));
            ]
        end)
      designs;
  kept

let promising ?(interrupt = never) cfg workload cands =
  let workload_name = workload.Mx_trace.Workload.name in
  stream ~interrupt cfg workload cands
    ~work:(fun plan t ->
      let clusters = Shard.clusters t.shard in
      let lv = Mx_sim.Estimator.level plan clusters in
      let gates =
        Array.map
          (fun ((cl : Cluster.t), choices) ->
            let channels = List.length cl.Cluster.channels in
            Array.map (fun c -> Conn_cost.cost_gates c ~channels) choices)
          clusters
      in
      let mem_gates = Mx_mem.Mem_arch.cost_gates t.cand.Mx_apex.Explore.arch in
      let o = Mx_sim.Estimator.outcome lv in
      (* the point's axes, in the order of [axes] *)
      let x = Array.make 3 0.0 in
      let front = Pareto.Flat.create ~dims:3 in
      Shard.iter t.shard (fun i v ->
          Mx_sim.Estimator.assess lv v;
          let g = ref mem_gates in
          for j = 0 to Array.length v - 1 do
            g := !g + gates.(j).(v.(j))
          done;
          x.(0) <- float_of_int !g;
          x.(1) <- o.Mx_sim.Estimator.latency;
          x.(2) <- o.Mx_sim.Estimator.energy_nj;
          Pareto.Flat.offer front x (t.offset + i));
      (lv, front))
    ~finish:(fun cand done_ ->
      let mem = cand.Mx_apex.Explore.arch in
      let front = Pareto.Flat.create ~dims:3 in
      List.iter (fun (_, (_, f)) -> Pareto.Flat.merge ~into:front f) done_;
      (* members are in stream order, so one walk finds their shards *)
      let rec seek id = function
        | _ :: ((t, _) :: _ as tl) when t.offset <= id -> seek id tl
        | l -> l
      in
      let rest = ref done_ and designs = ref [] in
      for m = 0 to Pareto.Flat.size front - 1 do
        let id = Pareto.Flat.id front m in
        rest := seek id !rest;
        let t, (lv, _) = List.hd !rest in
        let v = Shard.vector t.shard (id - t.offset) in
        Mx_sim.Estimator.assess lv v;
        designs :=
          Design.make ~workload_name ~mem ~conn:(Shard.connectivity t.shard v)
            ~est:(Mx_sim.Estimator.result lv) ()
          :: !designs
      done;
      thin_front cfg (List.rev !designs))
  |> Option.map (fun per_arch ->
         (List.map fst per_arch, List.fold_left (fun n (_, k) -> n + k) 0 per_arch))

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
  (* Phase I: one stream per shard of every selected memory
     architecture.  With the event log on, the collect sink keeps every
     estimate so that each design gets its verdict; otherwise each
     architecture keeps only its front. *)
  let phase1_out =
    Mx_util.Snapshot.set_phase "explore.phase1";
    if Ev.is_on Ev.global then
      Mx_util.Metrics.with_span metrics "explore.phase1" (fun () ->
          phase1 ~interrupt config workload apex_selected)
      |> Option.map (fun per_arch ->
             ( List.concat_map (local_promising config) per_arch,
               List.fold_left (fun n l -> n + List.length l) 0 per_arch ))
    else
      Mx_util.Metrics.with_span metrics "explore.phase1" (fun () ->
          promising ~interrupt config workload apex_selected)
      |> Option.map (fun (per_arch, n) -> (List.concat per_arch, n))
  in
  match phase1_out with
  | None ->
    (* interrupted while the shard queue was draining: there are no
       simulated designs yet, so the valid anytime front is empty *)
    Mx_util.Snapshot.set_phase "interrupted";
    {
      workload;
      apex_selected;
      simulated = [];
      pareto_cost_perf = [];
      n_estimates = 0;
      n_simulations = 0;
      wall_seconds = Unix.gettimeofday () -. t0;
      interrupted = true;
    }
  | Some (survivors, n_estimates) ->
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
      simulated;
      pareto_cost_perf;
      n_estimates;
      n_simulations = List.length simulated;
      wall_seconds = Unix.gettimeofday () -. t0;
      interrupted;
    }
