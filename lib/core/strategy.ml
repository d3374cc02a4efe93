module Ev = Mx_util.Event_log

type kind = Pruned | Neighborhood | Full

exception Full_infeasible of { projected_sims : int; budget : int }

type outcome = {
  kind : kind;
  designs : Design.t list;
  pareto_cost_perf : Design.t list;
  n_estimates : int;
  n_simulations : int;
  wall_seconds : float;
}

let kind_to_string = function
  | Pruned -> "Pruned"
  | Neighborhood -> "Neighborhood"
  | Full -> "Full"

(* [front] is the strategy's cost/latency front — the anytime archive's
   emission for the sweeps that feed one ({!Explore.evaluate_designs}
   with [~archive]), which with the default (exact, unbounded) archive
   settings equals [Pareto.front2] over [simulated]. *)
let finish kind ~label ~n_estimates ~t0 ~front simulated =
  let m = Mx_util.Metrics.global in
  Mx_util.Metrics.incr m ("strategy." ^ label ^ ".runs");
  Mx_util.Metrics.incr m ~by:n_estimates ("strategy." ^ label ^ ".estimates");
  Mx_util.Metrics.incr m ~by:(List.length simulated)
    ("strategy." ^ label ^ ".simulations");
  (* no wall seconds in the event: timings are never deterministic *)
  if Ev.is_on Ev.global then
    Ev.emit Ev.global ~stage:"strategy" "strategy.end"
      [
        ("kind", Ev.Str label);
        ("estimates", Ev.Int n_estimates);
        ("simulations", Ev.Int (List.length simulated));
      ];
  {
    kind;
    designs = simulated;
    pareto_cost_perf = front;
    n_estimates;
    n_simulations = List.length simulated;
    wall_seconds = Unix.gettimeofday () -. t0;
  }

(* Full's designs, built serially so their events carry deterministic
   sequence numbers; only the simulations fan out *)
let full_designs ~workload_name per_arch =
  let design mem conn =
    let d = Design.make ~workload_name ~mem ~conn () in
    if Ev.is_on Ev.global then begin
      Ev.emit Ev.global ~stage:"assign" "assign.kept"
        [ ("conn", Ev.Str (Mx_connect.Conn_arch.describe conn)) ];
      Ev.emit Ev.global ~stage:"phase1" "design.created"
        [
          ("design", Ev.Str (Design.structural_key d));
          ("id", Ev.Str (Design.id d));
          ("arch", Ev.Str mem.Mx_mem.Mem_arch.label);
        ]
    end;
    d
  in
  List.concat_map
    (fun ((cand : Mx_apex.Explore.candidate), shards) ->
      List.concat_map
        (fun shard ->
          let ds =
            List.map (design cand.Mx_apex.Explore.arch) (Shard.enumerate shard)
          in
          Explore.shard_finished shard;
          ds)
        shards)
    per_arch

let run ?(config = Explore.default_config) ?(neighbors = 2)
    ?(full_budget = 300_000) kind workload =
  let label = String.lowercase_ascii (kind_to_string kind) in
  Mx_util.Metrics.with_span Mx_util.Metrics.global ("strategy." ^ label)
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Mx_util.Snapshot.set_phase ("strategy." ^ label);
  if Ev.is_on Ev.global then
    Ev.emit Ev.global ~stage:"strategy" "strategy.begin"
      [ ("kind", Ev.Str label) ];
  (* Neighborhood and Full simulate their designs into a fresh archive *)
  let sweep ~n_estimates designs =
    let archive = Explore.make_archive config in
    let simulated =
      Explore.evaluate_designs config workload ~stage:"phase2"
        ~fidelity:(Explore.fidelity_of_sample config.Explore.sample)
        ~archive designs
    in
    finish kind ~label ~n_estimates ~t0
      ~front:(Mx_util.Pareto.Archive.front archive)
      simulated
  in
  let apex_all () =
    Mx_apex.Explore.explore ~config:config.Explore.apex
      (Mx_trace.Profile.analyze workload)
  in
  match kind with
  | Pruned ->
    let r = Explore.run ~config workload in
    finish Pruned ~label ~n_estimates:r.Explore.n_estimates ~t0
      ~front:r.Explore.pareto_cost_perf r.Explore.simulated
  | Neighborhood -> (
    (* widen the memory-architecture net: the full APEX pareto front,
       one shard queue across its architectures *)
    match
      Explore.promising ~neighbors config workload
        (Mx_apex.Explore.pareto (apex_all ()))
    with
    | Some (per_arch, n_estimates) -> sweep ~n_estimates (List.concat per_arch)
    | None -> assert false (* no interrupt hook on strategies *))
  | Full ->
    (* project the simulation count from the shard caps, before any
       connectivity is built *)
    let workload_fp = Mx_trace.Workload.fingerprint workload in
    let per_arch =
      List.map
        (fun cand -> (cand, Explore.plan_shards config ~workload_fp cand))
        (apex_all ())
    in
    let shards = List.concat_map snd per_arch in
    let projected = List.fold_left (fun n s -> n + Shard.cap s) 0 shards in
    let attrs =
      [ ("projected", Ev.Int projected); ("budget", Ev.Int full_budget) ]
    in
    if Ev.is_on Ev.global then
      Ev.emit Ev.global ~stage:"strategy" "strategy.full.projection" attrs;
    if projected > full_budget then begin
      if Ev.is_on Ev.global then
        Ev.emit Ev.global ~stage:"strategy" "strategy.full.infeasible" attrs;
      raise (Full_infeasible { projected_sims = projected; budget = full_budget })
    end;
    let designs =
      full_designs ~workload_name:workload.Mx_trace.Workload.name per_arch
    in
    Mx_util.Metrics.incr Mx_util.Metrics.global ~by:projected "assign.kept";
    sweep ~n_estimates:0 designs
