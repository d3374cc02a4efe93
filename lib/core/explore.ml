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
   estimates each from a level plan of its own.  Results are taken in
   queue order, so each architecture's stream, and so its front, is
   byte-identical whatever the shard count or jobs level.  [promising]
   keeps each shard's (cost, latency, energy) front, each point named by
   its stream position, and what needs every estimate walks the
   architecture's shards again; [phase1], the reference, keeps every
   estimate as a design. *)

type task = {
  cand : Mx_apex.Explore.candidate;
  shard : Shard.t;
  offset : int;  (** the stream position of the shard's first vector *)
  plan : (Mx_sim.Estimator.plan, exn) Stdlib.result;
}

let cap t = Shard.cap t.shard

let shard_finished shard =
  Mx_util.Metrics.incr Mx_util.Metrics.global "shard.finished";
  if Ev.is_on Ev.global then
    Ev.emit Ev.global ~stage:"shard" "shard.finished"
      [
        ("shard", Ev.Str (Shard.fingerprint shard));
        ("designs", Ev.Int (Shard.cap shard));
      ]

let plan_shards (cfg : config) ~workload_fp
    { Mx_apex.Explore.arch; profile; _ } =
  let brg = Brg.build arch profile in
  Shard.plan ~shards:cfg.shards
    ~max_designs_per_level:cfg.max_designs_per_level ~workload_fp
    ~arch_label:arch.Mx_mem.Mem_arch.label
    ~arch_fp:(Mx_mem.Mem_arch.fingerprint arch)
    ~onchip:cfg.onchip ~offchip:cfg.offchip
    (Cluster.levels_ordered Cluster.Lowest_bandwidth_first brg.Brg.channels)

(* one architecture's queue entries, in plan order *)
let plan_candidate (cfg : config) workload ~workload_fp
    ({ Mx_apex.Explore.arch; profile; _ } as cand) =
  match plan_shards cfg ~workload_fp cand with
  | [] -> []
  | shards ->
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
   any domain — and hand each architecture's results, in candidate and
   then queue order, to [finish] on the calling domain.
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
        shard_finished t.shard)
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
              ("shard", Ev.Str (Shard.fingerprint t.shard));
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
               (fun _ ->
                 let r = results.(!next) in
                 incr next;
                 match r with
                 | Some (Ok r) -> r
                 | Some (Error e) -> raise e
                 | None -> assert false (* every task committed *))
               tasks
           in
           let n = List.fold_left (fun n t -> n + cap t) 0 tasks in
           Mx_util.Metrics.incr metrics ~by:n "assign.kept";
           let r = finish done_ in
           Mx_util.Snapshot.eval_committed ~by:n ();
           Mx_util.Metrics.incr metrics ~by:n "explore.estimates";
           (r, n))
         cands per_arch)
  end

let phase1 ?(interrupt = never) cfg workload cands =
  let workload_name = workload.Mx_trace.Workload.name in
  stream ~interrupt cfg workload cands
    ~work:(fun plan t ->
      let mem = t.cand.Mx_apex.Explore.arch in
      let lv = Mx_sim.Estimator.level plan (Shard.clusters t.shard) in
      let out = ref [] in
      Shard.iter t.shard (fun _ v ->
          Mx_sim.Estimator.assess lv v;
          out :=
            Design.make ~workload_name ~mem
              ~conn:(Shard.connectivity t.shard v)
              ~est:(Mx_sim.Estimator.result lv) ()
            :: !out);
      List.rev !out)
    ~finish:List.concat
  |> Option.map (List.map fst)

let axes = [ Design.cost; Design.latency; Design.energy ]

let thin_by_cost ~keep designs =
  let n = List.length designs in
  if n <= keep || keep <= 0 then designs
  else begin
    let arr = Array.of_list (Mx_util.Pareto.sort_by Design.cost designs) in
    if keep = 1 then [ arr.(0) ]
    else List.init keep (fun i -> arr.(i * (n - 1) / (keep - 1)))
  end

(* Phase I selection once the front is known *)
let thin_front cfg front =
  let kept = thin_by_cost ~keep:cfg.phase1_keep front in
  Mx_util.Metrics.observe Mx_util.Metrics.global ~unit_:"designs"
    "explore.local_front_size"
    (float_of_int (List.length front));
  Mx_util.Metrics.incr Mx_util.Metrics.global ~by:(List.length kept)
    "explore.phase1_kept";
  kept

let local_promising cfg designs =
  thin_front cfg (Mx_util.Pareto.front ~axes designs)

(* What a shard task of [promising] keeps: its level plan, the gates of
   each cluster's choices, and the front of its slice. *)
type slice = {
  task : task;
  lv : Mx_sim.Estimator.level;
  gates : int array array;  (** [gates.(j).(c)]: cluster [j] on choice [c] *)
  mem_gates : int;
  front : Pareto.Flat.t;
}

(* assess vector [v] of [s] into [x], its point in the order of [axes] *)
let assess s v x =
  Mx_sim.Estimator.assess s.lv v;
  let g = ref s.mem_gates in
  for j = 0 to Array.length v - 1 do
    g := !g + s.gates.(j).(v.(j))
  done;
  let o = Mx_sim.Estimator.outcome s.lv in
  x.(0) <- float_of_int !g;
  x.(1) <- o.Mx_sim.Estimator.latency;
  x.(2) <- o.Mx_sim.Estimator.energy_nj

(* [f s id v] over an architecture's vectors in stream order, [v] not
   yet assessed *)
let walk slices f =
  List.iter
    (fun s -> Shard.iter s.task.shard (fun i v -> f s (s.task.offset + i) v))
    slices

(* the design of the vector of [s] assessed last *)
let design_of ~workload_name s v =
  Design.make ~workload_name ~mem:s.task.cand.Mx_apex.Explore.arch
    ~conn:(Shard.connectivity s.task.shard v)
    ~est:(Mx_sim.Estimator.result s.lv) ()

(* Every estimate's records, in stream order, once the architecture's
   front (stream positions [members], designs [front]) and kept designs
   are known: [assign.kept], [design.created], [design.evaluated],
   [eval.cache.provenance], then the verdict.  A pruned design names
   the first front member, in stream order, that dominates it; one
   exists because dominance is transitive. *)
let emit_estimates ~workload_name slices ~members ~front ~kept =
  let emit = Ev.emit Ev.global ~stage:"phase1" in
  (* "e": an estimate, outside the simulated rungs of [Eval] *)
  let fidelity = ("fidelity", Ev.Str "e")
  and source = Mx_sim.Eval.provenance_tag Mx_sim.Eval.Computed in
  let on_front = Hashtbl.create 64 in
  List.iter2
    (fun id d ->
      Hashtbl.replace on_front id
        (if List.memq d kept then "design.kept" else "design.thinned"))
    members front;
  walk slices (fun s id v ->
      Mx_sim.Estimator.assess s.lv v;
      let d = design_of ~workload_name s v in
      let design = ("design", Ev.Str (Design.structural_key d)) in
      Ev.emit Ev.global ~stage:"assign" "assign.kept"
        [ ("conn", Ev.Str (Conn_arch.describe d.Design.conn)) ];
      emit "design.created"
        [
          design;
          ("id", Ev.Str (Design.id d));
          ("arch", Ev.Str d.Design.mem.Mx_mem.Mem_arch.label);
        ];
      emit "design.evaluated" [ design; fidelity ];
      emit "eval.cache.provenance"
        [ design; fidelity; ("source", Ev.Str source);
          ("shard", Ev.Str (Shard.fingerprint s.task.shard)) ];
      match Hashtbl.find_opt on_front id with
      | Some verdict -> emit verdict [ design ]
      | None ->
        let by = List.find (fun e -> Pareto.dominates ~axes e d) front in
        emit "design.pruned"
          [ design; ("dominated_by", Ev.Str (Design.structural_key by)) ])

(* The stream positions of each kept point's [k] nearest other
   estimates: squared distance on the axes, each divided by its span
   over the architecture (1 when flat), ties to the earlier position;
   concatenated in [kept] order, each position at its first occurrence
   only. *)
let nearest ~k slices (kept : (int * float array) list) =
  let x = Array.make 3 0.0 in
  let lo = Array.make 3 infinity and hi = Array.make 3 neg_infinity in
  walk slices (fun s _ v ->
      assess s v x;
      for a = 0 to 2 do
        lo.(a) <- Float.min lo.(a) x.(a);
        hi.(a) <- Float.max hi.(a) x.(a)
      done);
  let span =
    Array.map2 (fun l h -> if h -. l <= 0.0 then 1.0 else h -. l) lo hi
  in
  (* the [k] nearest so far, nearest first, the earlier one first on
     ties *)
  let rec insert k c = function
    | _ when k = 0 -> []
    | c' :: l when Float.compare (fst c') (fst c) <= 0 ->
      c' :: insert (k - 1) c l
    | l -> c :: List.filteri (fun i _ -> i < k - 1) l
  in
  let near = List.map (fun (_, p) -> (p, ref [])) kept in
  walk slices (fun s id v ->
      if not (List.mem_assoc id kept) then begin
        assess s v x;
        List.iter
          (fun (p, best) ->
            let d = ref 0.0 in
            for a = 0 to 2 do
              let e = (p.(a) -. x.(a)) /. span.(a) in
              d := !d +. (e *. e)
            done;
            best := insert k (!d, id) !best)
          near
      end);
  List.concat_map (fun (_, best) -> List.map snd !best) near
  |> List.fold_left
       (fun acc id -> if List.mem id acc then acc else id :: acc)
       []
  |> List.rev

let promising ?(interrupt = never) ?(neighbors = 0) cfg workload cands =
  let workload_name = workload.Mx_trace.Workload.name in
  stream ~interrupt cfg workload cands
    ~work:(fun plan t ->
      let clusters = Shard.clusters t.shard in
      let gates ((cl : Cluster.t), choices) =
        let channels = List.length cl.Cluster.channels in
        Array.map (fun c -> Conn_cost.cost_gates c ~channels) choices
      in
      let s =
        {
          task = t;
          lv = Mx_sim.Estimator.level plan clusters;
          gates = Array.map gates clusters;
          mem_gates = Mx_mem.Mem_arch.cost_gates t.cand.Mx_apex.Explore.arch;
          front = Pareto.Flat.create ~dims:3;
        }
      in
      let x = Array.make 3 0.0 in
      Shard.iter t.shard (fun i v ->
          assess s v x;
          Pareto.Flat.offer s.front x (t.offset + i));
      s)
    ~finish:(fun slices ->
      let merged = Pareto.Flat.create ~dims:3 in
      List.iter (fun s -> Pareto.Flat.merge ~into:merged s.front) slices;
      let design_at id =
        let s = List.find (fun s -> id < s.task.offset + cap s.task) slices in
        let v = Shard.vector s.task.shard (id - s.task.offset) in
        Mx_sim.Estimator.assess s.lv v;
        design_of ~workload_name s v
      in
      (* members are in stream order *)
      let members =
        List.init (Pareto.Flat.size merged) (Pareto.Flat.id merged)
      in
      let front = List.map design_at members in
      let kept = thin_front cfg front in
      if Ev.is_on Ev.global then
        emit_estimates ~workload_name slices ~members ~front ~kept;
      if neighbors <= 0 then kept
      else begin
        let ids = List.combine front members in
        let point d =
          (List.assq d ids, Array.of_list (List.map (fun f -> f d) axes))
        in
        let nbrs =
          nearest ~k:neighbors slices (List.map point kept)
          |> List.map design_at
        in
        if Ev.is_on Ev.global then
          List.iter
            (fun (d : Design.t) ->
              Ev.emit Ev.global ~stage:"phase1" "design.neighbor"
                [ ("design", Ev.Str (Design.structural_key d)) ])
            nbrs;
        kept @ nbrs
      end)
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
     architecture, each architecture keeping only its front *)
  let phase1_out =
    Mx_util.Snapshot.set_phase "explore.phase1";
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
