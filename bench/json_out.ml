(* Machine-readable perf data for tracking the benchmark trajectory
   across PRs.  Experiments register records as they run; [write] dumps
   them as one JSON document (hand-rolled: only strings, ints and
   floats ever appear, so no JSON library is needed). *)

type experiment = {
  name : string;
  wall_seconds : float;
  n_estimates : int;
  n_simulations : int;
}

type scaling = {
  bench : string;
  jobs : int;
  scaling_wall_seconds : float;
  speedup : float;  (* serial wall time / this wall time *)
}

(* Free-form scalar measurements (bytes/access, Macc/s, chunk
   fractions...) from experiments whose shape doesn't fit the
   estimate/simulation funnel. *)
type stat = { stat_name : string; value : float }

let experiments : experiment list ref = ref []
let scalings : scaling list ref = ref []
let stats : stat list ref = ref []

let record_stat ~name ~value = stats := { stat_name = name; value } :: !stats

let record_experiment ~name ~wall_seconds ~n_estimates ~n_simulations =
  experiments :=
    { name; wall_seconds; n_estimates; n_simulations } :: !experiments

let record_scaling ~bench ~jobs ~wall_seconds ~speedup =
  scalings :=
    { bench; jobs; scaling_wall_seconds = wall_seconds; speedup } :: !scalings

let write ~path =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"unix_time\": %.0f,\n" (Unix.time ()));
  Buffer.add_string b
    (Printf.sprintf "  \"recommended_domains\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string b "  \"experiments\": [\n";
  let exps = List.rev !experiments in
  List.iteri
    (fun i (e : experiment) ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"name\": \"%s\", \"wall_seconds\": %.4f, \"n_estimates\": \
            %d, \"n_simulations\": %d}%s\n"
           (Mx_util.Json.escape e.name)
           e.wall_seconds e.n_estimates e.n_simulations
           (if i = List.length exps - 1 then "" else ",")))
    exps;
  Buffer.add_string b "  ],\n";
  (* exploration metrics collected during the run (funnel counters, bus
     utilisation, span tree) — one more section of the same document *)
  let metrics_json = Mx_util.Metrics.to_json Mx_util.Metrics.global in
  Buffer.add_string b "  \"metrics\": ";
  String.iter
    (fun c ->
      Buffer.add_char b c;
      if c = '\n' then Buffer.add_string b "  ")
    (String.trim metrics_json);
  Buffer.add_string b ",\n";
  Buffer.add_string b "  \"stats\": [\n";
  let sts = List.rev !stats in
  List.iteri
    (fun i (s : stat) ->
      Buffer.add_string b
        (Printf.sprintf "    {\"name\": \"%s\", \"value\": %.6f}%s\n"
           (Mx_util.Json.escape s.stat_name) s.value
           (if i = List.length sts - 1 then "" else ",")))
    sts;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"scaling\": [\n";
  let scs = List.rev !scalings in
  List.iteri
    (fun i (s : scaling) ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"bench\": \"%s\", \"jobs\": %d, \"wall_seconds\": %.4f, \
            \"speedup\": %.3f}%s\n"
           (Mx_util.Json.escape s.bench)
           s.jobs s.scaling_wall_seconds s.speedup
           (if i = List.length scs - 1 then "" else ",")))
    scs;
  Buffer.add_string b "  ]\n";
  Buffer.add_string b "}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents b));
  Printf.printf "perf data written to %s\n" path
