(* The output check every run must pass, and the self-test that proves
   the check can fail.

   A run's result is reduced to a digest over the input trace's
   fingerprint, every front it produced (structural key plus the cost,
   latency and energy the run ledger records, each float bit-exact), its
   funnel counts and its deterministic fidelity numbers.  At the default
   seed the digest must equal the committed one; at any other seed every
   run must agree with the first run of that seed.  Independently of the
   seed, the cheapest and the fastest exact front designs are
   re-simulated with the straight-line oracle, and in the strategies
   workload every result served after the restart must equal the one
   Full computed. *)

module Design = Conex.Design
module Strategy = Conex.Strategy
module W = Workloads

let default_seed = 7

(* digests of the default seed, one per workload, as every run prints
   them; replace one only for a change that is meant to alter results *)
let committed =
  [
    ("explore-compress", "a118b4c1e6037d0f1bb10fd63768256e");
    ("explore-li-sampled", "7aaee63943551967cbb5a02a8f80ed3d");
    ("strategies-table2", "5ea8601babd8c426e03898a137adcbaf");
  ]

let committed_digest ~workload ~seed =
  if seed = default_seed then List.assoc_opt workload committed else None

let latency (d : Design.t) =
  match d.Design.sim with
  | Some s -> s.Mx_sim.Sim_result.avg_mem_latency
  | None -> Float.nan

(* Phase I estimated vs simulated latency rank agreement *)
let rank_rho (o : W.outcome) =
  let pairs =
    List.filter_map
      (fun (d : Design.t) ->
        match (d.Design.est, d.Design.sim) with
        | Some e, Some s ->
          Some
            (e.Mx_sim.Sim_result.avg_mem_latency,
             s.Mx_sim.Sim_result.avg_mem_latency)
        | _ -> None)
      o.W.ranked
  in
  Mx_util.Stats.spearman (List.map fst pairs) (List.map snd pairs)

let coverages (o : W.outcome) =
  match o.W.strategies with
  | None -> None
  | Some (full, pruned, nbhd) ->
    let pct s = (Conex.Coverage.eval ~reference:full s).Conex.Coverage.coverage_pct in
    Some (pct pruned, pct nbhd)

let digest (o : W.outcome) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "workload %s" (Mx_trace.Workload.fingerprint o.W.workload);
  List.iter
    (fun (name, front) ->
      line "front %s %d" name (List.length front);
      List.iter
        (fun d ->
          line "%s %h %h %h" (Design.structural_key d) (Design.cost d)
            (latency d) (Design.energy d))
        front)
    o.W.fronts;
  line "counts %d %d %d" o.W.n_estimates o.W.n_simulations o.W.n_refined;
  (match rank_rho o with Some r -> line "rho %h" r | None -> line "rho -");
  (match coverages o with
  | Some (p, n) -> line "coverage %h %h" p n
  | None -> ());
  Digest.to_hex (Digest.string (Buffer.contents b))

(* every result served after the restart equals the one Full computed *)
let served_mismatches (o : W.outcome) =
  match o.W.strategies with
  | None -> 0
  | Some (full, pruned, nbhd) ->
    let by_key = Hashtbl.create 2048 in
    List.iter
      (fun (d : Design.t) -> Hashtbl.replace by_key (Design.structural_key d) d.Design.sim)
      full.Strategy.designs;
    List.length
      (List.filter
         (fun (d : Design.t) ->
           match Hashtbl.find_opt by_key (Design.structural_key d) with
           | Some sim -> sim <> d.Design.sim
           | None -> true)
         (pruned.Strategy.designs @ nbhd.Strategy.designs))

(* the cheapest and the fastest exact designs of the first front, minus
   those with an L2, which the oracle does not model *)
let oracle_targets (o : W.outcome) =
  let front = match o.W.fronts with (_, f) :: _ -> f | [] -> [] in
  let exact = List.filter W.is_exact front in
  let pick axis =
    match Mx_util.Pareto.sort_by axis exact with d :: _ -> [ d ] | [] -> []
  in
  List.sort_uniq
    (fun a b -> compare (Design.structural_key a) (Design.structural_key b))
    (pick Design.cost @ pick Design.latency)
  |> List.filter (fun (d : Design.t) -> d.Design.mem.Mx_mem.Mem_arch.l2 = None)

let oracle_mismatches (o : W.outcome) =
  List.filter
    (fun (d : Design.t) ->
      let replay =
        Mx_check.Oracle.replay ~workload:o.W.workload ~arch:d.Design.mem
          ~conn:d.Design.conn ()
      in
      Some replay <> d.Design.sim)
    (oracle_targets o)
  |> List.length

(* [reference] is the committed digest at the default seed, else the
   digest of the first run of this seed ([None] for that first run). *)
let failures ~trace_fp ~reference (o : W.outcome) =
  let fail cond msg = if cond then [ msg ] else [] in
  List.concat
    [
      fail
        (Mx_trace.Workload.fingerprint o.W.workload <> trace_fp)
        "the loaded trace is not the one generated from the seed";
      fail
        (List.exists (fun (_, f) -> f = []) o.W.fronts)
        "an empty front";
      (match reference with
      | Some r -> fail (digest o <> r) "result digest differs from the reference"
      | None -> []);
      fail (oracle_mismatches o > 0) "oracle replay differs from the front";
      fail (served_mismatches o > 0) "a disk-served result differs from Full's";
      fail
        (o.W.strategies <> None && o.W.disk_hits = 0)
        "nothing was served from disk after the restart";
    ]

(* The check must reject a front with one latency off by one ulp, and a
   trace generated from another seed. *)
let selftest ~trace_fp ~reference ~other_seed (o : W.outcome) =
  let perturbed =
    match o.W.fronts with
    | (name, (d : Design.t) :: rest) :: fronts ->
      let sim =
        Option.map
          (fun (s : Mx_sim.Sim_result.t) ->
            { s with avg_mem_latency = Float.succ s.avg_mem_latency })
          d.Design.sim
      in
      { o with W.fronts = (name, { d with Design.sim } :: rest) :: fronts }
    | _ -> o
  in
  let rejects o = failures ~trace_fp ~reference o <> [] in
  let reference_ok = reference <> None in
  reference_ok
  && rejects perturbed
  && rejects { o with W.workload = other_seed }
