(* The ConEx benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Set-up generates the workload's kernel trace from the seed and writes
   it as an MXTB file (25 times; the median is [setup_s]).  Timed
   runs then repeat, one at a time on one domain, for about [S] seconds:
   each starts from a cold hot tier at [Trace_io.load] and ends at the
   final front, and each is checked (see [Check]).  With [--trace 1] a
   separate traced run re-executes the workload stage by stage and the
   per-layer metrics replace the end-to-end ones.  The last line of
   standard output is the JSON result. *)

module W = Workloads
module Eval = Mx_sim.Eval

let work_root = Filename.concat "perfbench" "_work"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let dir_bytes dir =
  if Sys.file_exists dir then
    Array.fold_left
      (fun acc n -> acc + (Unix.stat (Filename.concat dir n)).Unix.st_size)
      0 (Sys.readdir dir)
  else 0

let now = Unix.gettimeofday

(* -- arguments ----------------------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun s -> s.W.name) W.specs));
  exit 2

let parse_args () =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { a with traced = v = "1" } rest
    | [] -> a
    | _ -> usage ()
  in
  try
    go
      {
        workload = "";
        seed = Check.default_seed;
        seconds = 10.0;
        traced = false;
      }
      (List.tl (Array.to_list Sys.argv))
  with Failure _ -> usage ()

(* -- environment snapshot (printed, never compared) ----------------------- *)

let first_line_of_command prog =
  match Unix.open_process_args_in prog [| prog |] with
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    line
  | exception Unix.Unix_error _ -> "unknown"

let git_commit () =
  let read path =
    try
      let ic = open_in path in
      let l = String.trim (input_line ic) in
      close_in ic;
      Some l
    with Sys_error _ | End_of_file -> None
  in
  match read (Filename.concat ".git" "HEAD") with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
    let ref_ = String.sub head 5 (String.length head - 5) in
    Option.value ~default:"unknown" (read (Filename.concat ".git" ref_))
  | Some head -> head
  | None -> "unknown"

let env_json a =
  let str s = "\"" ^ Mx_util.Json.escape s ^ "\"" in
  let num n = Mx_util.Json.number (float_of_int n) in
  Printf.sprintf
    "{\"ocaml\": %s, \"recommended_domain_count\": %s, \"nproc\": %s, \
     \"host\": %s, \"commit\": %s, \"workload\": %s, \"seed\": %s, \"jobs\": \
     1, \"shards\": 1}"
    (str Sys.ocaml_version)
    (num (Domain.recommended_domain_count ()))
    (str (first_line_of_command "nproc"))
    (str (Unix.gethostname ()))
    (str (git_commit ()))
    (str a.workload) (num a.seed)

(* -- metrics --------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* every digit of a finite value; the driver compares runs *)
let value_json v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else Mx_util.Json.number v

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
              (Mx_util.Json.escape x.name) (value_json x.value)
              (Mx_util.Json.escape x.unit_))
          metrics))

let print_metrics title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun x -> Printf.printf "  %-34s %18.6f %s\n" x.name x.value x.unit_)
    metrics

let safe_div a b = if b > 0.0 then a /. b else 0.0

(* -- set-up ---------------------------------------------------------------- *)

let setup_reps = 25

let setup (spec : W.spec) ~seed ~dir =
  let trace = Filename.concat dir "trace.mxtb" in
  let store = Filename.concat dir "store" in
  let generated = ref None in
  let once () =
    let t0 = now () in
    rm_rf dir;
    mkdir_p store;
    let w = spec.W.generate ~scale:spec.W.scale ~seed in
    Mx_trace.Trace_io.save ~format:Mx_trace.Trace_io.Binary w ~path:trace;
    generated := Some w;
    now () -. t0
  in
  let times = List.init setup_reps (fun _ -> once ()) in
  (Tracer.median times, Option.get !generated, trace, store)

(* a fresh store and a cold hot tier, then a collected heap *)
let fresh_state store =
  rm_rf store;
  mkdir_p store;
  Eval.set_cache_capacity Eval.default_cache_capacity;
  Gc.compact ()

(* -- per-layer metrics of the traced run ----------------------------------- *)

(* Phase I runs its estimates inside one call, so their per-call cost is
   probed after the traced run: every estimate again, uncached. *)
let estimate_probe w =
  List.concat_map
    (fun ((cand : Mx_apex.Explore.candidate), ests) ->
      List.map
        (fun (d : Conex.Design.t) ->
          let t0 = now () in
          ignore
            (Mx_sim.Estimator.estimate ~workload:w ~arch:cand.Mx_apex.Explore.arch
               ~profile:cand.Mx_apex.Explore.profile ~conn:d.Conex.Design.conn);
          now () -. t0)
        ests)
    !W.phase1_inputs

(* Module-level simulation alone, once per distinct architecture that
   a computed simulation replayed, to split simulation time between
   [Mem_sim] and the connectivity timing on top of it. *)
let mem_sim_probe w computed =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (c : W.sim_call) ->
      let fp = Mx_mem.Mem_arch.fingerprint c.W.arch in
      if not (Hashtbl.mem seen fp) then begin
        let t0 = now () in
        let sim =
          Mx_mem.Mem_sim.create c.W.arch ~regions:w.Mx_trace.Workload.regions
        in
        ignore (Mx_mem.Mem_sim.run sim w.Mx_trace.Workload.trace);
        Hashtbl.add seen fp (now () -. t0)
      end)
    computed;
  seen

let layer_metrics ~(o : W.outcome) ~(traced : W.traced) ~traced_wall ~wall
    ~apex_candidates ~store_bytes =
  let w = o.W.workload in
  let accesses = float_of_int (Mx_trace.Workload.access_count w) in
  let total = Tracer.total in
  let durations name = List.map Tracer.duration (Tracer.named name) in
  let count name = float_of_int (List.length (Tracer.named name)) in
  let mb bytes = bytes /. 1e6 in
  let calls = !W.sim_calls in
  let with_prov p = List.filter (fun (c : W.sim_call) -> c.W.prov = p) calls in
  let computed = with_prov Eval.Computed in
  let n l = float_of_int (List.length l) in
  let secs l = List.map (fun (c : W.sim_call) -> c.W.seconds) l in
  let sum = List.fold_left ( +. ) 0.0 in
  let computed_at pred =
    List.filter (fun (c : W.sim_call) -> pred c.W.fidelity) computed
  in
  let exact = computed_at (fun f -> f = Eval.Exact) in
  let sampled =
    computed_at (function Eval.Sampled _ -> true | _ -> false)
  in
  let maccs l = safe_div (n l *. accesses) (sum (secs l)) /. 1e6 in
  let mem_sim = mem_sim_probe w computed in
  let mem_sim_s =
    sum
      (List.map
         (fun (c : W.sim_call) ->
           Hashtbl.find mem_sim (Mx_mem.Mem_arch.fingerprint c.W.arch))
         computed)
  in
  let estimates = estimate_probe w in
  let n_estimates = n estimates in
  let load_s = total "trace.load" in
  let apex_s = total "apex" in
  let apex_cands = count "apex" *. float_of_int apex_candidates in
  let phase1_s = total "phase1" in
  let us = List.map (fun s -> s *. 1e6) in
  let ms = List.map (fun s -> s *. 1e3) in
  let inserts = durations "archive.insert" in
  let first_front = match o.W.fronts with (_, f) :: _ -> f | [] -> [] in
  [
    m "trace.load_s" "s" load_s;
    m "trace.decode_maccs" "Macc/s" (safe_div accesses load_s /. 1e6);
    m "trace.profile_s" "s" (total "trace.profile");
    m "trace.accesses" "count" accesses;
    m "apex.select_s" "s" apex_s;
    m "apex.candidates" "count" apex_cands;
    m "apex.mem_sim_maccs" "Macc/s" (safe_div (apex_cands *. accesses) apex_s /. 1e6);
    m "apex.alloc_mb" "MB" (mb (Tracer.alloc_total "apex"));
    m "phase1.s" "s" phase1_s;
    m "phase1.estimates" "count" n_estimates;
    m "phase1.estimates_per_s" "1/s" (safe_div n_estimates phase1_s);
    m "phase1.alloc_mb" "MB" (mb (Tracer.alloc_total "phase1"));
    m "estimate.us_p50" "us" (Tracer.median (us estimates));
    m "estimate.us_tail" "us" (Tracer.tail (us estimates));
    m "estimate.us_n" "count" n_estimates;
    m "select.s" "s" (total "select");
    m "select.inputs" "count" n_estimates;
    m "select.kept" "count" (float_of_int !W.selected);
    m "select.alloc_mb" "MB" (mb (Tracer.alloc_total "select"));
    m "full.enumerate_s" "s" (total "full.enumerate");
    m "eval.calls" "count" (n calls);
    m "eval.computed" "count" (n computed);
    m "eval.hot_hits" "count" (n (with_prov Eval.Cache_hit));
    m "eval.disk_hits" "count" (n (with_prov Eval.Disk_hit));
    m "eval.promoted" "count" (n (with_prov Eval.Promoted));
    m "eval.hit_ratio" "ratio" (safe_div (n calls -. n computed) (n calls));
    m "eval.compute_ms_p50" "ms" (Tracer.median (ms (secs computed)));
    m "eval.compute_ms_tail" "ms" (Tracer.tail (ms (secs computed)));
    m "eval.compute_ms_n" "count" (n computed);
    m "eval.hit_us_p50" "us" (Tracer.median (us (secs (with_prov Eval.Cache_hit))));
    m "eval.disk_hit_us_p50" "us" (Tracer.median (us (secs (with_prov Eval.Disk_hit))));
    m "eval.disk_hit_us_tail" "us" (Tracer.tail (us (secs (with_prov Eval.Disk_hit))));
    m "eval.disk_hit_us_n" "count" (n (with_prov Eval.Disk_hit));
    m "sim.exact_maccs" "Macc/s" (maccs exact);
    m "sim.sampled_maccs" "Macc/s" (maccs sampled);
    m "sim.mem_sim_share_pct" "%" (100.0 *. safe_div mem_sim_s (sum (secs computed)));
    m "sim.variants_per_arch" "count"
      (safe_div (n computed) (float_of_int (Hashtbl.length mem_sim)));
    m "sim.alloc_bytes_per_access" "B"
      (safe_div
         (sum (List.map (fun (c : W.sim_call) -> c.W.alloc_bytes) computed))
         (n computed *. accesses));
    m "sim.accesses_replayed" "count" (n computed *. accesses);
    m "sim.refinements" "count" (float_of_int o.W.n_refined);
    m "archive.inserts" "count" (n inserts);
    m "archive.insert_us_p50" "us" (Tracer.median (us inserts));
    m "archive.insert_us_tail" "us" (Tracer.tail (us inserts));
    m "archive.insert_us_n" "count" (n inserts);
    m "archive.size" "count" (n first_front);
    m "persist.records" "count" (float_of_int traced.W.records);
    m "persist.bytes" "B" (float_of_int store_bytes);
    m "persist.reopen_s" "s" (total "persist.reopen");
    m "persist.close_s" "s" (total "persist.close");
    m "strategy.full_s" "s" (total "strategy.full");
    m "strategy.pruned_s" "s" (total "strategy.pruned");
    m "strategy.neighborhood_s" "s" (total "strategy.neighborhood");
    m "traced.wall_s" "s" traced_wall;
    m "traced.residual_s" "s" (traced_wall -. Tracer.roots_total ());
    m "traced.overhead_pct" "%" (100.0 *. safe_div (traced_wall -. wall) wall);
  ]

(* -- fidelity: deterministic, so taken from the first passing run ----------- *)

(* mean relative latency error of sampled against exact simulation over
   the designs the refine pass re-simulated *)
let sampled_err_pct (spec : W.spec) (o : W.outcome) =
  match spec.W.config.Conex.Explore.sample with
  | None -> 0.0
  | Some (on, off) ->
    List.filter W.is_exact o.W.ranked
    |> List.map (fun (d : Conex.Design.t) ->
           let s =
             Mx_check.Oracle.eval_direct
               ~fidelity:(Eval.Sampled (on, off))
               ~workload:o.W.workload ~arch:d.Conex.Design.mem
               ~conn:d.Conex.Design.conn ()
           in
           let x = Check.latency d in
           100.0 *. Float.abs (s.Mx_sim.Sim_result.avg_mem_latency -. x) /. x)
    |> Mx_util.Stats.mean

let fidelity_metrics spec o =
  let pruned, nbhd = Option.value ~default:(0.0, 0.0) (Check.coverages o) in
  [
    m "fidelity.estimate_rank_rho" "rho"
      (Option.value ~default:0.0 (Check.rank_rho o));
    m "fidelity.sampled_err_pct" "%" (sampled_err_pct spec o);
    m "fidelity.pruned_coverage_pct" "%" pruned;
    m "fidelity.neighborhood_coverage_pct" "%" nbhd;
  ]

(* -- the run ------------------------------------------------------------------ *)

(* design evaluations a run reports: APEX candidates (once per APEX
   call), estimates, simulations and refinements *)
let designs ~apex_candidates (o : W.outcome) =
  let apex_calls = if o.W.strategies = None then 1 else 3 in
  (apex_calls * apex_candidates) + o.W.n_estimates + o.W.n_simulations
  + o.W.n_refined

let () =
  let a = parse_args () in
  let spec = match W.find a.workload with Some s -> s | None -> usage () in
  let dir =
    Filename.concat work_root (Printf.sprintf "%s-%d" spec.W.name a.seed)
  in
  let setup_s, generated, trace, store = setup spec ~seed:a.seed ~dir in
  let trace_fp = Mx_trace.Workload.fingerprint generated in
  let apex_candidates =
    List.length
      (Mx_apex.Explore.candidates spec.W.config.Conex.Explore.apex
         (Mx_trace.Profile.analyze generated))
  in
  let reference =
    ref (Check.committed_digest ~workload:spec.W.name ~seed:a.seed)
  in
  let committed = !reference <> None in
  let attempted = ref 0 and failed = ref 0 in
  let fail what msg =
    incr failed;
    Printf.printf "FAIL %s: %s\n%!" what msg
  in
  let walls = ref [] and rates = ref [] and durations = ref [] in
  let first = ref None and peak_heap_words = ref 0 in
  (* timed runs, closed loop, until the next one would overrun *)
  let t_start = now () in
  while
    !attempted = 0
    || now () -. t_start +. Tracer.median !durations <= a.seconds
  do
    fresh_state store;
    incr attempted;
    let what = Printf.sprintf "run %d" !attempted in
    let t0 = now () in
    (try
       let o = W.run spec ~trace ~store in
       let wall = now () -. t0 in
       Printf.printf "%s: %.3f s, %d estimates, %d simulations\n%!" what wall
         o.W.n_estimates o.W.n_simulations;
       (* OCaml 5.1 never returns major heap memory, so only the first
          run's peak is free of earlier runs' fragmentation *)
       if !walls = [] then
         peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
       walls := wall :: !walls;
       rates := (float_of_int (designs ~apex_candidates o) /. wall) :: !rates;
       match Check.failures ~trace_fp ~reference:!reference o with
       | [] ->
         if !reference = None then reference := Some (Check.digest o);
         if !first = None then first := Some o
       | errs -> fail what (String.concat "; " errs)
     with e -> fail what (Printexc.to_string e));
    durations := (now () -. t0) :: !durations
  done;
  let wall = Tracer.median !walls in
  let peak_heap_mb =
    float_of_int (!peak_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let e2e =
    [
      m "wall_s" "s" wall;
      m "setup_s" "s" setup_s;
      m "peak_heap_mb" "MB" peak_heap_mb;
    ]
  in
  (* deterministic per seed, or (design throughput) driven by how many
     cheap estimates the seed's APEX selection yields: reported with the
     per-layer metrics, not compared across seeds *)
  let unbounded =
    match !first with
    | Some o -> (
      try
        m "work.designs" "count" (float_of_int (designs ~apex_candidates o))
        :: m "work.designs_per_s" "1/s" (Tracer.median !rates)
        :: fidelity_metrics spec o
      with e ->
        fail "fidelity" (Printexc.to_string e);
        [])
    | None -> []
  in
  (* the traced run: its own cold start, its front must equal the
     untraced one *)
  let layers =
    if not a.traced then []
    else begin
      fresh_state store;
      Tracer.reset ();
      incr attempted;
      let t0 = now () in
      try
        let traced = W.run_traced spec ~trace ~store in
        let traced_wall = now () -. t0 in
        let o = traced.W.outcome in
        if Some (Check.digest o) <> !reference then
          fail "traced run" "its result differs from the untraced runs";
        let spans = Filename.concat dir "spans.jsonl" in
        let oc = open_out spans in
        output_string oc (Tracer.to_jsonl ());
        close_out oc;
        Printf.printf "spans written to %s\n" spans;
        layer_metrics ~o ~traced ~traced_wall ~wall ~apex_candidates
          ~store_bytes:(dir_bytes store)
      with e ->
        fail "traced run" (Printexc.to_string e);
        []
    end
  in
  (* the check must be able to fail, or no run counts as checked *)
  let selftest =
    match !first with
    | None -> false
    | Some o -> (
      try
        Check.selftest ~trace_fp ~reference:!reference
          ~other_seed:(spec.W.generate ~scale:spec.W.scale ~seed:(a.seed + 1))
          o
      with _ -> false)
  in
  if not selftest then begin
    print_endline "FAIL self-test: the check accepts a corrupted result";
    failed := !attempted
  end;
  let correct = !failed = 0 in
  Printf.printf "%s seed %d: %d runs attempted, %d failed; reference %s%s\n"
    spec.W.name a.seed !attempted !failed
    (if committed then "committed digest" else "first run of this seed")
    (if correct then "; check PASS" else "; check FAIL");
  Option.iter
    (fun o -> Printf.printf "digest %s\n" (Check.digest o))
    !first;
  print_metrics "end-to-end" e2e;
  print_metrics "work and fidelity"
    (m "failed_ratio" "ratio"
       (float_of_int !failed /. float_of_int !attempted)
    :: unbounded);
  if a.traced then print_metrics "per layer (traced run)" layers;
  Printf.printf "env %s\n" (env_json a);
  print_endline
    (result_json ~correct ~attempted:!attempted ~failed:!failed
       (if a.traced then layers @ unbounded else e2e))
