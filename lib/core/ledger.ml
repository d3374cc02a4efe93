(* Manifests are small JSON documents built as Mx_util.Json values,
   rendered by its one writer and read back through its reader.  The
   canonical/exempt split mirrors the metrics determinism contract so
   the whole observability surface tells one story: anything named
   timing/cache/sched may vary between schedules, nothing else may. *)

module Json = Mx_util.Json
module Metrics = Mx_util.Metrics

type front_point = { f_cost : float; f_latency : float; f_energy : float }

type manifest = {
  version : int;
  run_id : string;
  kind : string;
  created_at : string;
  workload_name : string;
  workload_fp : string;
  config_kv : (string * string) list;
  sched_kv : (string * string) list;
  counters : (string * int) list;
  n_estimates : int;
  n_simulations : int;
  front : front_point list;
  interrupted : bool;
  wall_seconds : float;
  cache_hits : int;
  cache_misses : int;
}

(* version 2 prints every number exactly; version 1 rounded to 6
   significant digits *)
let schema_version = 2

(* -- run identity --------------------------------------------------------- *)

(* FNV-1a 64-bit over the canonical identity: kind, workload
   fingerprint, deterministic config.  Same exploration, same id —
   whatever the schedule. *)
let fnv1a64 s =
  let open Int64 in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := logxor !h (of_int (Char.code c));
      h := mul !h 0x100000001b3L)
    s;
  !h

let run_id_of ~kind ~workload_fp ~config_kv =
  let b = Buffer.create 128 in
  Buffer.add_string b kind;
  Buffer.add_char b '\n';
  Buffer.add_string b workload_fp;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b '\n';
      Buffer.add_string b (k ^ "=" ^ v))
    config_kv;
  Printf.sprintf "%016Lx" (fnv1a64 (Buffer.contents b))

(* -- construction --------------------------------------------------------- *)

let sort_kv kv = List.sort (fun (a, _) (b, _) -> String.compare a b) kv

let timestamp_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let make ~kind ~config_kv ~sched_kv ~(result : Explore.result) =
  let config_kv = sort_kv config_kv and sched_kv = sort_kv sched_kv in
  let workload_fp = Mx_trace.Workload.fingerprint result.Explore.workload in
  (* shard.* and task_pool.* describe the execution engine and vary
     with --shards, so they stay out of the (schedule-invariant)
     manifest even though they pass the jobs-parity filter *)
  let counters =
    Metrics.deterministic_counters (Metrics.snapshot Metrics.global)
    |> List.filter (fun (name, _) ->
           not
             (Metrics.has_segment "shard." name
             || Metrics.has_segment "task_pool." name))
  in
  let front =
    result.Explore.pareto_cost_perf
    |> List.map (fun d ->
           {
             f_cost = Design.cost d;
             f_latency = Design.latency d;
             f_energy = Design.energy d;
           })
    |> List.sort (fun a b ->
           match Float.compare a.f_cost b.f_cost with
           | 0 -> Float.compare a.f_latency b.f_latency
           | c -> c)
  in
  {
    version = schema_version;
    run_id = run_id_of ~kind ~workload_fp ~config_kv;
    kind;
    created_at = timestamp_now ();
    workload_name = result.Explore.workload.Mx_trace.Workload.name;
    workload_fp;
    config_kv;
    sched_kv;
    counters;
    n_estimates = result.Explore.n_estimates;
    n_simulations = result.Explore.n_simulations;
    front;
    interrupted = result.Explore.interrupted;
    wall_seconds = result.Explore.wall_seconds;
    cache_hits = Metrics.counter_value Metrics.global "eval.cache.hits";
    cache_misses = Metrics.counter_value Metrics.global "eval.cache.misses";
  }

let cache_hit_rate m =
  let total = m.cache_hits + m.cache_misses in
  if total > 0 then float_of_int m.cache_hits /. float_of_int total else 0.0

(* -- serialisation -------------------------------------------------------- *)

let obj render kv = Json.Obj (List.map (fun (k, v) -> (k, render v)) kv)
let str v = Json.Str v

let canonical_fields m =
  [
    ("version", Json.int m.version);
    ("run_id", str m.run_id);
    ("kind", str m.kind);
    ( "workload",
      obj str [ ("name", m.workload_name); ("fingerprint", m.workload_fp) ] );
    ("config", obj str m.config_kv);
    ("counters", obj Json.int m.counters);
    ( "funnel",
      Json.Obj
        [
          ("n_estimates", Json.int m.n_estimates);
          ("n_simulations", Json.int m.n_simulations);
          ("interrupted", Json.Bool m.interrupted);
        ] );
    ( "front",
      Json.Arr
        (List.map
           (fun p ->
             Json.Obj
               [
                 ("cost", Json.Num p.f_cost);
                 ("latency", Json.Num p.f_latency);
                 ("energy", Json.Num p.f_energy);
               ])
           m.front) );
  ]

let render fields = Json.to_string (Json.Obj fields) ^ "\n"
let canonical_json m = render (canonical_fields m)

let to_json m =
  render
    (canonical_fields m
    @ [
        ("created_at", str m.created_at);
        ("timing", Json.Obj [ ("wall_seconds", Json.Num m.wall_seconds) ]);
        ( "cache",
          obj Json.int [ ("hits", m.cache_hits); ("misses", m.cache_misses) ] );
        ("sched", obj str m.sched_kv);
      ])

let of_json text =
  match Json.parse (String.trim text) with
  | Error m -> Error m
  | Ok doc ->
    let ( let* ) r f = Result.bind r f in
    let str_field ?inside k =
      let v =
        match inside with
        | None -> Json.member k doc
        | Some outer -> Option.bind (Json.member outer doc) (Json.member k)
      in
      match Option.bind v Json.to_string_opt with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "missing or non-string %S" k)
    in
    let int_field ?inside k =
      let v =
        match inside with
        | None -> Json.member k doc
        | Some outer -> Option.bind (Json.member outer doc) (Json.member k)
      in
      match Option.bind v Json.to_int_opt with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "missing or non-integer %S" k)
    in
    let kv_of k conv =
      match Json.member k doc with
      | Some (Json.Obj fields) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | (key, v) :: rest -> (
            match conv v with
            | Some v -> go ((key, v) :: acc) rest
            | None -> Error (Printf.sprintf "bad value in %S for %S" k key))
        in
        go [] fields
      | Some _ -> Error (Printf.sprintf "%S is not an object" k)
      | None -> Ok []
    in
    let* version = int_field "version" in
    let* () =
      if version = 1 || version = 2 then Ok ()
      else Error (Printf.sprintf "unsupported manifest version %d" version)
    in
    let* run_id = str_field "run_id" in
    let* kind = str_field "kind" in
    let* workload_name = str_field ~inside:"workload" "name" in
    let* workload_fp = str_field ~inside:"workload" "fingerprint" in
    let* config_kv = kv_of "config" Json.to_string_opt in
    let* sched_kv = kv_of "sched" Json.to_string_opt in
    let* counters = kv_of "counters" Json.to_int_opt in
    let* n_estimates = int_field ~inside:"funnel" "n_estimates" in
    let* n_simulations = int_field ~inside:"funnel" "n_simulations" in
    let interrupted =
      Option.value ~default:false
        (Option.bind
           (Option.bind (Json.member "funnel" doc)
              (Json.member "interrupted"))
           Json.to_bool_opt)
    in
    let* front =
      match Json.member "front" doc with
      | Some (Json.Arr ps) ->
        let point p =
          let f k =
            Option.value ~default:0.0
              (Option.bind (Json.member k p) Json.to_float_opt)
          in
          { f_cost = f "cost"; f_latency = f "latency"; f_energy = f "energy" }
        in
        Ok (List.map point ps)
      | Some _ -> Error "\"front\" is not an array"
      | None -> Ok []
    in
    let created_at =
      Option.value ~default:""
        (Option.bind (Json.member "created_at" doc) Json.to_string_opt)
    in
    let wall_seconds =
      Option.value ~default:0.0
        (Option.bind
           (Option.bind (Json.member "timing" doc)
              (Json.member "wall_seconds"))
           Json.to_float_opt)
    in
    let cache_int k =
      Option.value ~default:0
        (Option.bind
           (Option.bind (Json.member "cache" doc) (Json.member k))
           Json.to_int_opt)
    in
    Ok
      {
        version;
        run_id;
        kind;
        created_at;
        workload_name;
        workload_fp;
        config_kv;
        sched_kv;
        counters;
        n_estimates;
        n_simulations;
        front;
        interrupted;
        wall_seconds;
        cache_hits = cache_int "hits";
        cache_misses = cache_int "misses";
      }

(* -- the ledger directory ------------------------------------------------- *)

let ensure_dir dir =
  let rec mk d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  match mk dir with
  | () -> if Sys.is_directory dir then Ok () else Error (dir ^ ": not a directory")
  | exception Unix.Unix_error (e, _, _) ->
    Error (dir ^ ": " ^ Unix.error_message e)

let compact_timestamp s =
  String.to_seq s
  |> Seq.filter (fun c ->
         match c with '0' .. '9' -> true | 'T' -> true | _ -> false)
  |> Seq.map (fun c -> if c = 'T' then '-' else c)
  |> String.of_seq

let save ~dir m =
  match ensure_dir dir with
  | Error e -> Error e
  | Ok () ->
    let base =
      Printf.sprintf "run-%s-%s" (compact_timestamp m.created_at) m.run_id
    in
    let rec fresh i =
      let name =
        if i = 0 then base ^ ".json" else Printf.sprintf "%s-%d.json" base i
      in
      let path = Filename.concat dir name in
      if Sys.file_exists path then fresh (i + 1) else path
    in
    let path = fresh 0 in
    let tmp = path ^ ".tmp" in
    (match
       let oc = open_out tmp in
       Fun.protect
         ~finally:(fun () -> close_out_noerr oc)
         (fun () -> output_string oc (to_json m));
       Sys.rename tmp path
     with
    | () -> Ok path
    | exception Sys_error e -> Error e)

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match of_json text with
    | Ok m -> Ok m
    | Error e -> Error (Printf.sprintf "%s: %s" path e))

let list ~dir =
  if not (Sys.file_exists dir) then Ok []
  else
    match Sys.readdir dir with
    | exception Sys_error e -> Error e
    | names ->
      let names = Array.to_list names |> List.sort String.compare in
      Ok
        (List.filter_map
           (fun name ->
             if
               String.length name > 9
               && String.sub name 0 4 = "run-"
               && Filename.check_suffix name ".json"
             then
               match load ~path:(Filename.concat dir name) with
               | Ok m -> Some (name, m)
               | Error _ -> None
             else None)
           names)

(* -- comparison ----------------------------------------------------------- *)

type thresholds = {
  max_wall_ratio : float;
  max_hit_drop : float;
  min_front_coverage : float;
}

let default_thresholds =
  { max_wall_ratio = 1.25; max_hit_drop = 10.0; min_front_coverage = 0.99 }

type diff = {
  a : manifest;
  b : manifest;
  comparable : bool;
  wall_ratio : float;
  hit_drop_pp : float;
  front_coverage : float;
  wall_regressed : bool;
  hit_regressed : bool;
  front_regressed : bool;
}

(* Fraction of A's front weakly dominated by B's: every point of a
   healthy B reaches (or beats) the quality A demonstrated. *)
let coverage ~of_:fa ~by:fb =
  match fa with
  | [] -> 1.0
  | fa ->
    let covered p =
      List.exists
        (fun q -> q.f_cost <= p.f_cost && q.f_latency <= p.f_latency)
        fb
    in
    float_of_int (List.length (List.filter covered fa))
    /. float_of_int (List.length fa)

let compare_runs ?(thresholds = default_thresholds) a b =
  (* a version-1 front point, rounded to 6 digits, can sit just above
     the same point written exactly, so fronts compare within a version *)
  let comparable =
    a.version = b.version && a.kind = b.kind
    && a.workload_fp = b.workload_fp && a.config_kv = b.config_kv
  in
  let wall_ratio =
    if a.wall_seconds > 0.0 then b.wall_seconds /. a.wall_seconds else 1.0
  in
  let hit_drop_pp = 100.0 *. (cache_hit_rate a -. cache_hit_rate b) in
  let front_coverage = coverage ~of_:a.front ~by:b.front in
  {
    a;
    b;
    comparable;
    wall_ratio;
    hit_drop_pp;
    front_coverage;
    wall_regressed = comparable && wall_ratio > thresholds.max_wall_ratio;
    hit_regressed = comparable && hit_drop_pp > thresholds.max_hit_drop;
    front_regressed =
      comparable && front_coverage < thresholds.min_front_coverage;
  }

let regressed d = d.wall_regressed || d.hit_regressed || d.front_regressed

let render_diff d =
  let b = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  let ident tag m =
    line "%s %s  %s  workload %s%s" tag m.run_id m.kind m.workload_name
      (if m.interrupted then "  (interrupted)" else "")
  in
  ident "A" d.a;
  ident "B" d.b;
  if not d.comparable then
    line "  runs are not comparable (%s) — no thresholds applied"
      (if d.a.version <> d.b.version then
         Printf.sprintf "manifest versions %d and %d" d.a.version d.b.version
       else "different kind, workload or config");
  let verdict regressed = if regressed then "REGRESSION" else "ok" in
  line "  wall time   %.2fs -> %.2fs  (x%.2f)  %s" d.a.wall_seconds
    d.b.wall_seconds d.wall_ratio
    (verdict d.wall_regressed);
  line "  cache hits  %.1f%% -> %.1f%%  (%+.1fpp)  %s"
    (100.0 *. cache_hit_rate d.a)
    (100.0 *. cache_hit_rate d.b)
    (-.d.hit_drop_pp) (verdict d.hit_regressed);
  line "  front       %d -> %d points, coverage %.2f  %s"
    (List.length d.a.front) (List.length d.b.front) d.front_coverage
    (verdict d.front_regressed);
  line "  funnel      estimates %d -> %d, simulations %d -> %d"
    d.a.n_estimates d.b.n_estimates d.a.n_simulations d.b.n_simulations;
  Buffer.contents b
