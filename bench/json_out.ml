(* Machine-readable perf data for tracking the benchmark trajectory
   across PRs.  Experiments register records as they run; [write] dumps
   them, with the metrics registry, as one JSON document. *)

module Json = Mx_util.Json

let experiments = ref []
let scalings = ref []

(* Free-form scalar measurements (bytes/access, Macc/s, chunk
   fractions...) from experiments whose shape doesn't fit the
   estimate/simulation funnel. *)
let stats = ref []

let record_stat ~name ~value =
  stats :=
    Json.Obj [ ("name", Json.Str name); ("value", Json.Num value) ] :: !stats

let record_experiment ~name ~wall_seconds ~n_estimates ~n_simulations =
  experiments :=
    Json.Obj
      [
        ("name", Json.Str name);
        ("wall_seconds", Json.Num wall_seconds);
        ("n_estimates", Json.int n_estimates);
        ("n_simulations", Json.int n_simulations);
      ]
    :: !experiments

(* [speedup] is the serial wall time over this wall time *)
let record_scaling ~bench ~jobs ~wall_seconds ~speedup =
  scalings :=
    Json.Obj
      [
        ("bench", Json.Str bench);
        ("jobs", Json.int jobs);
        ("wall_seconds", Json.Num wall_seconds);
        ("speedup", Json.Num speedup);
      ]
    :: !scalings

let write ~path =
  let doc =
    Json.Obj
      [
        ("unix_time", Json.Num (Unix.time ()));
        ("recommended_domains", Json.int (Domain.recommended_domain_count ()));
        ("experiments", Json.Arr (List.rev !experiments));
        (* exploration metrics collected during the run (funnel
           counters, bus utilisation, span tree) *)
        ("metrics", Mx_util.Metrics.to_json_value Mx_util.Metrics.global);
        ("stats", Json.Arr (List.rev !stats));
        ("scaling", Json.Arr (List.rev !scalings));
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "perf data written to %s\n" path
