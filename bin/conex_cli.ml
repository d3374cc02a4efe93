(* Command-line driver for the MemorEx/ConEx exploration flow.

     conex profile   -w compress           profile a workload
     conex apex      -w li                 memory-modules exploration
     conex explore   -w vocoder            full two-phase ConEx
     conex strategies -w compress          Pruned/Neighborhood/Full comparison *)

open Cmdliner

let workload_names =
  [ "compress"; "li"; "vocoder"; "jpeg"; "fft"; "dijkstra"; "mixed" ]

(* User errors exit 2, I/O errors exit 1 — never an uncaught exception
   (cmdliner would report "internal error" and exit 125). *)
let die_usage fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let die_io fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 1)
    fmt

let check_workload_name name =
  if not (List.mem name workload_names) then
    die_usage "unknown workload %S (expected %s)" name
      (String.concat "|" workload_names)

let make_workload name ~scale ~seed =
  match name with
  | "compress" -> Mx_trace.Kern_compress.generate ~scale ~seed
  | "li" -> Mx_trace.Kern_li.generate ~scale ~seed
  | "vocoder" -> Mx_trace.Kern_vocoder.generate ~scale ~seed
  | "jpeg" -> Mx_trace.Kern_jpeg.generate ~scale ~seed
  | "fft" -> Mx_trace.Kern_fft.generate ~scale ~seed
  | "dijkstra" -> Mx_trace.Kern_graph.generate ~scale ~seed
  | "mixed" ->
    Mx_trace.Synthetic.generate ~name:"mixed" ~scale ~seed
      ~specs:
        [
          Mx_trace.Synthetic.spec ~name:"stream" ~elems:8192 ~share:2.0
            Mx_trace.Region.Stream;
          Mx_trace.Synthetic.spec ~name:"hot" ~elems:128 ~share:2.0 ~skew:1.2
            Mx_trace.Region.Indexed;
          Mx_trace.Synthetic.spec ~name:"table" ~elems:16384 ~share:1.5
            ~skew:0.2 Mx_trace.Region.Random_access;
          Mx_trace.Synthetic.spec ~name:"list" ~elems:8192 ~share:1.5
            Mx_trace.Region.Self_indirect;
        ]
  | other ->
    die_usage "unknown workload %S (expected %s)" other
      (String.concat "|" workload_names)

(* common options *)

let workload_arg =
  let doc =
    "Workload: compress, li, vocoder, jpeg, fft, dijkstra or mixed."
  in
  Arg.(value & opt string "compress" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let trace_in_arg =
  let doc = "Load the workload from a saved trace file instead of a kernel." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let resolve_workload name scale seed trace_in =
  match trace_in with
  | Some path -> (
    try Mx_trace.Trace_io.load ~path with
    | Sys_error msg -> die_io "cannot load trace: %s" msg
    | Mx_trace.Trace_io.Parse_error { line; message } ->
      die_io "cannot load trace %s: line %d: %s" path line message)
  | None -> make_workload name ~scale ~seed

let scale_arg =
  let doc = "Trace length (number of memory accesses)." in
  Arg.(value & opt int 100_000 & info [ "scale" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Random seed (experiments are deterministic per seed)." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc)

let reduced_arg =
  let doc = "Use the reduced module/component catalogue (much faster)." in
  Arg.(value & flag & info [ "reduced" ] ~doc)

let jobs_arg =
  let doc =
    "Number of domains used for estimation and simulation (default: cores \
     minus one, at least 1).  Results are identical at every jobs level."
  in
  Arg.(
    value
    & opt int (Mx_util.Task_pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_size_arg =
  let doc =
    "Capacity of the evaluation result cache, in entries (0 disables it).  \
     Cached simulations are keyed by structural fingerprints, so re-simulating \
     a design already simulated — including across strategies in one run — is \
     free; estimates are cheaper to compute than to look up and are never \
     cached.  Cache traffic appears as $(b,eval.cache.*) counters under \
     --metrics."
  in
  Arg.(
    value
    & opt int Mx_sim.Eval.default_cache_capacity
    & info [ "cache-size" ] ~docv:"N" ~doc)

let cache_dir_arg =
  let doc =
    "Directory of the persistent evaluation store (created if missing): \
     simulation results land on disk as they are computed and later runs \
     with the same $(docv) warm-start from them, byte-identically.  Entries \
     are keyed by structural fingerprints and stamped with the evaluator \
     revision, so a store written by an older model is ignored wholesale.  \
     Disk traffic appears as $(b,eval.cache.disk.*) counters under \
     --metrics."
  in
  Arg.(
    value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let tiers_begin ~cache_size cache_dir =
  Mx_sim.Eval.set_cache_capacity cache_size;
  Option.iter
    (fun dir ->
      match Mx_sim.Eval.open_persist ~dir with
      | Ok () -> ()
      | Error e -> die_io "cannot open cache dir: %s" e)
    cache_dir

(* the one-line summary is load-bearing for tests and CI: "disk hits >
   0 on the second run" greps for it *)
let tiers_end oc cache_dir =
  Option.iter
    (fun dir ->
      Option.iter
        (fun (s : Mx_util.Persist_cache.stats) ->
          Printf.fprintf oc
            "persistent cache: %d disk hits, %d writes, %d recovered (dir %s)\n"
            s.get_hits s.appended s.recovered dir)
        (Mx_sim.Eval.persist_stats ());
      Mx_sim.Eval.close_persist ())
    cache_dir

let shards_arg =
  let doc =
    "Number of prefix-shards each clustering level is split into for the \
     Phase I work-queue.  The design stream and the pareto front are \
     byte-identical at every value; more shards give the parallel queue \
     finer grains to balance."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let check_shards shards =
  if shards <= 0 then die_usage "--shards must be positive (got %d)" shards

let config_of_reduced ~shards reduced jobs =
  let base =
    if reduced then Conex.Explore.reduced_config
    else Conex.Explore.default_config
  in
  { base with Conex.Explore.jobs = max 1 jobs; shards }

(* -- observability ----------------------------------------------------- *)

let metrics_arg =
  let doc =
    "Collect exploration metrics and print them after the run, as $(b,text) \
     or $(b,json) (counters, gauges, histograms and the span trace tree)."
  in
  Arg.(
    value
    & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
    & info [ "metrics" ] ~docv:"FORMAT" ~doc)

let trace_out_arg =
  let doc =
    "Collect exploration metrics and write the JSON document (same schema as \
     --metrics json) to $(docv)."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let events_out_arg =
  let doc =
    "Record the decision-provenance event stream (cluster merges, assignment \
     verdicts, per-design lifecycle) and write it as JSONL to $(docv); \
     inspect it with $(b,conex explain)."
  in
  Arg.(
    value & opt (some string) None & info [ "events-out" ] ~docv:"FILE" ~doc)

let chrome_out_arg =
  let doc =
    "Write a Chrome trace-event JSON timeline (span slices plus event \
     instants) to $(docv); load it in Perfetto or chrome://tracing."
  in
  Arg.(
    value & opt (some string) None & info [ "chrome-out" ] ~docv:"FILE" ~doc)

let status_out_arg =
  let doc =
    "Write a live status snapshot (phase, shard progress, eval throughput, \
     cache hit rate, per-domain utilization, ETA, stall flag) to $(docv) on \
     a cadence, atomically (write-temp + rename); read it any time with \
     $(b,conex status)."
  in
  Arg.(
    value & opt (some string) None & info [ "status-out" ] ~docv:"FILE" ~doc)

let status_interval_arg =
  let doc = "Seconds between status snapshot writes (with --status-out)." in
  Arg.(value & opt float 1.0 & info [ "status-interval" ] ~docv:"SECONDS" ~doc)

let stall_after_arg =
  let doc =
    "Seconds without a commit before the status snapshot reports the run as \
     stalled (with --status-out)."
  in
  Arg.(value & opt float 30.0 & info [ "stall-after" ] ~docv:"SECONDS" ~doc)

let run_dir_arg =
  let doc =
    "Record a versioned run manifest (config, workload fingerprint, final \
     metrics, front summary, wall time, interrupted flag) into the ledger \
     directory $(docv) when the run completes or is interrupted; inspect \
     the ledger with $(b,conex runs list) and $(b,conex runs diff)."
  in
  Arg.(value & opt (some string) None & info [ "run-dir" ] ~docv:"DIR" ~doc)

let ledger_record run_dir ~kind ~config_kv ~sched_kv result =
  Option.iter
    (fun dir ->
      let m = Conex.Ledger.make ~kind ~config_kv ~sched_kv ~result in
      match Conex.Ledger.save ~dir m with
      | Ok path -> Printf.printf "run manifest written to %s\n" path
      | Error e -> die_io "cannot write run manifest: %s" e)
    run_dir

(* Check every output path before any exploration work: a typo'd
   directory must fail in milliseconds (exit 2, a usage error), not
   after hours of simulation. *)
let validate_out_path = function
  | None -> ()
  | Some path -> (
    try
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      close_out oc
    with Sys_error msg -> die_usage "cannot write to output path: %s" msg)

let write_out ~what path write =
  try Out_channel.with_open_text path write
  with Sys_error msg -> die_io "cannot write %s: %s" what msg

(* -- the option group of explore and strategies -------------------------- *)

type run_opts = {
  jobs : int;
  shards : int;
  cache_size : int;
  cache_dir : string option;
  metrics : [ `Text | `Json ] option;
  trace_out : string option;
  events_out : string option;
  chrome_out : string option;
  status_out : string option;
  status_interval : float;
  stall_after : float;
}

(* Validated as the command line is read, before the command builds its
   workload: every check here is cheap. *)
let run_opts_term =
  let make jobs shards cache_size cache_dir metrics trace_out events_out
      chrome_out status_out status_interval stall_after =
    check_shards shards;
    if status_interval <= 0.0 then
      die_usage "--status-interval must be positive (got %g)" status_interval;
    if stall_after <= 0.0 then
      die_usage "--stall-after must be positive (got %g)" stall_after;
    List.iter validate_out_path
      [ trace_out; events_out; chrome_out; status_out ];
    {
      jobs = max 1 jobs;
      shards;
      cache_size;
      cache_dir;
      metrics;
      trace_out;
      events_out;
      chrome_out;
      status_out;
      status_interval;
      stall_after;
    }
  in
  Term.(
    const make $ jobs_arg $ shards_arg $ cache_size_arg $ cache_dir_arg
    $ metrics_arg $ trace_out_arg $ events_out_arg $ chrome_out_arg
    $ status_out_arg $ status_interval_arg $ stall_after_arg)

(* The Chrome exporter is built from the metrics span forest, so
   --chrome-out implies metrics collection too. *)
let metrics_wanted o =
  o.metrics <> None || o.trace_out <> None || o.chrome_out <> None

let events_wanted o = o.events_out <> None || o.chrome_out <> None

(* --events-out gets each event as it is emitted; the ring keeps them
   only for --chrome-out, rendered after the run *)
let events_begin o =
  let log = Mx_util.Event_log.global in
  Mx_util.Event_log.reset log;
  let out =
    Option.map
      (fun path ->
        try (path, open_out path)
        with Sys_error msg -> die_io "cannot write events: %s" msg)
      o.events_out
  in
  Mx_util.Event_log.set_output log ~keep:(o.chrome_out <> None)
    (Option.map snd out);
  Mx_util.Event_log.set_enabled log true;
  out

let events_end o out =
  let log = Mx_util.Event_log.global in
  Mx_util.Event_log.set_enabled log false;
  Option.iter
    (fun (path, oc) ->
      let n = Mx_util.Event_log.written log in
      Mx_util.Event_log.set_output log None;
      (try close_out oc
       with Sys_error msg -> die_io "cannot write events: %s" msg);
      Printf.printf "%d events written to %s\n" n path)
    out;
  Option.iter
    (fun path ->
      let snapshot = Mx_util.Metrics.snapshot Mx_util.Metrics.global in
      write_out ~what:"chrome trace" path (fun oc ->
          output_string oc
            (Mx_util.Event_log.to_chrome_trace ~snapshot
               (Mx_util.Event_log.events log)));
      Printf.printf "chrome trace written to %s\n" path)
    o.chrome_out

let metrics_end o =
  let m = Mx_util.Metrics.global in
  Mx_sim.Cycle_sim.record_utilization_gauges ();
  Option.iter
    (fun path ->
      write_out ~what:"metrics trace" path (fun oc ->
          output_string oc (Mx_util.Metrics.to_json m));
      Printf.printf "metrics trace written to %s\n" path)
    o.trace_out;
  match o.metrics with
  | Some `Text ->
    print_newline ();
    print_string (Mx_util.Metrics.to_text m);
    let hits = Mx_util.Metrics.counter_value m "eval.cache.hits" in
    let misses = Mx_util.Metrics.counter_value m "eval.cache.misses" in
    let total = hits + misses in
    Printf.printf "eval.cache: %d hits, %d misses (%.1f%% hit rate)\n" hits
      misses
      (if total = 0 then 0.0
       else 100.0 *. float_of_int hits /. float_of_int total)
  | Some `Json ->
    print_newline ();
    print_string (Mx_util.Metrics.to_json m)
  | None -> ()

(* The bracket around an explore or strategies run.  Opens the
   evaluation tiers and telemetry sinks [o] asks for, runs [f] — which
   does the work, prints its headline and returns the rest of its
   report — then prints, in this order: the persistent-cache summary,
   that report, the event outputs and the metrics, so the --metrics
   JSON document stays the last thing on stdout.  The status snapshot
   and the run manifest read the eval.cache counters and the task-pool
   busy histograms from the ambient registry, so either one implies
   metrics collection (without forcing the --metrics report). *)
let with_run o ?run_dir f =
  tiers_begin ~cache_size:o.cache_size o.cache_dir;
  let m = Mx_util.Metrics.global in
  if metrics_wanted o
     || ((o.status_out <> None || run_dir <> None)
        && not (Mx_util.Metrics.is_on m))
  then begin
    Mx_util.Metrics.reset m;
    Mx_util.Metrics.set_enabled m true
  end;
  let events = if events_wanted o then Some (events_begin o) else None in
  Option.iter
    (fun path ->
      Mx_util.Snapshot.start ~interval:o.status_interval
        ~stall_after:o.stall_after ~path ())
    o.status_out;
  let report = f () in
  if o.status_out <> None then Mx_util.Snapshot.finish ();
  tiers_end stdout o.cache_dir;
  report ();
  Option.iter (events_end o) events;
  if metrics_wanted o then metrics_end o

(* -- profile ---------------------------------------------------------- *)

let profile_cmd =
  let run name scale seed trace_in save_trace =
    let w = resolve_workload name scale seed trace_in in
    let p = Mx_trace.Profile.analyze w in
    Format.printf "%a@." Mx_trace.Profile.pp_summary p;
    Option.iter
      (fun path ->
        Mx_trace.Trace_io.save w ~path;
        Printf.printf "trace saved to %s\n" path)
      save_trace
  in
  let save_trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-trace" ] ~docv:"FILE"
          ~doc:"Also save the generated workload trace to a file.")
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Profile a workload's access patterns")
    Term.(
      const run $ workload_arg $ scale_arg $ seed_arg $ trace_in_arg
      $ save_trace_arg)

(* -- apex ------------------------------------------------------------- *)

let apex_cmd =
  let run name scale seed reduced =
    let w = make_workload name ~scale ~seed in
    let p = Mx_trace.Profile.analyze w in
    let config =
      if reduced then Mx_apex.Explore.reduced_config
      else Mx_apex.Explore.default_config
    in
    let sel = Mx_apex.Explore.select ~config p in
    let t =
      Mx_util.Table.create
        ~headers:[ "#"; "architecture"; "cost [gates]"; "miss ratio" ]
    in
    List.iteri
      (fun i (c : Mx_apex.Explore.candidate) ->
        Mx_util.Table.add_row t
          [
            string_of_int (i + 1);
            c.Mx_apex.Explore.arch.Mx_mem.Mem_arch.label;
            string_of_int c.Mx_apex.Explore.cost_gates;
            Printf.sprintf "%.4f" c.Mx_apex.Explore.miss_ratio;
          ])
      sel;
    Mx_util.Table.print t
  in
  Cmd.v
    (Cmd.info "apex"
       ~doc:"Memory-modules exploration: the selected architectures")
    Term.(const run $ workload_arg $ scale_arg $ seed_arg $ reduced_arg)

(* -- explore ----------------------------------------------------------- *)

let scenario_arg =
  let doc =
    "Constrained selection: power=<nJ>, cost=<gates> or perf=<cycles>."
  in
  Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"KIND=V" ~doc)

let parse_scenario s =
  let bad () = die_usage "bad --scenario %S (power=X | cost=X | perf=X)" s in
  let num v = match float_of_string_opt v with Some f -> f | None -> bad () in
  match String.split_on_char '=' s with
  | [ "power"; v ] -> Conex.Scenario.Power_constrained (num v)
  | [ "cost"; v ] -> Conex.Scenario.Cost_constrained (num v)
  | [ "perf"; v ] -> Conex.Scenario.Perf_constrained (num v)
  | _ -> bad ()

let parse_policies s =
  let all_names =
    String.concat "|" (List.map Mx_mem.Params.policy_to_string
                         Mx_mem.Params.all_policies)
  and preset_names =
    String.concat "|" (List.map fst Mx_mem.Params.policy_presets)
  in
  let toks =
    List.filter (fun t -> t <> "")
      (List.map String.trim (String.split_on_char ',' s))
  in
  if toks = [] then die_usage "--policies needs at least one policy name";
  let policies =
    List.map
      (fun tok ->
        match Mx_mem.Params.policy_of_string tok with
        | Some p -> p
        | None ->
          die_usage "unknown policy %S (expected %s, or a preset: %s)" tok
            all_names preset_names)
      toks
  in
  (* presets may alias (haswell and skylake are both qlru_h11_m1):
     dedupe so the cross-product has no identical design points *)
  List.fold_left
    (fun acc p -> if List.mem p acc then acc else acc @ [ p ])
    [] policies

let config_with_policies config = function
  | None -> config
  | Some policies ->
    let cross cs =
      List.concat_map
        (fun c ->
          List.map (fun p -> Mx_mem.Module_lib.with_policy p c) policies)
        cs
    in
    let apex = config.Conex.Explore.apex in
    {
      config with
      Conex.Explore.apex =
        {
          apex with
          Mx_apex.Explore.caches = cross apex.Mx_apex.Explore.caches;
          l2s = cross apex.Mx_apex.Explore.l2s;
        };
    }

let explore_cmd =
  let run name scale seed reduced (o : run_opts) policies scenario plot
      trace_in csv front_out bus_report run_dir =
    (* validate cheap inputs before hours of exploration *)
    let scenario = Option.map parse_scenario scenario in
    let policies = Option.map parse_policies policies in
    if trace_in = None then check_workload_name name;
    List.iter validate_out_path [ csv; front_out ];
    let w = resolve_workload name scale seed trace_in in
    with_run o ~run_dir @@ fun () ->
    let config =
      config_with_policies
        (config_of_reduced ~shards:o.shards reduced o.jobs)
        policies
    in
    (* anytime mode: with --front-out, SIGINT asks the run to stop at
       the next commit boundary instead of killing the process — the
       front that comes back (and is written below) is a valid pareto
       front of exactly the work committed so far *)
    let interrupt =
      match front_out with
      | None -> None
      | Some _ ->
        let hit = Atomic.make false in
        Sys.set_signal Sys.sigint
          (Sys.Signal_handle (fun _ -> Atomic.set hit true));
        Some (fun () -> Atomic.get hit)
    in
    let r = Conex.Explore.run ~config ?interrupt w in
    ledger_record run_dir ~kind:"explore"
      ~config_kv:
        [
          ("workload", w.Mx_trace.Workload.name);
          ("scale", string_of_int scale);
          ("seed", string_of_int seed);
          ("reduced", string_of_bool reduced);
          ( "policies",
            match policies with
            | None -> "default"
            | Some ps ->
              String.concat ","
                (List.map Mx_mem.Params.policy_to_string ps) );
        ]
      ~sched_kv:
        [
          ("jobs", string_of_int o.jobs);
          ("shards", string_of_int o.shards);
          ("cache_size", string_of_int o.cache_size);
        ]
      r;
    Printf.printf
      "%s: %d estimates -> %d simulations -> %d pareto designs (%.1fs)%s\n\n"
      name r.Conex.Explore.n_estimates r.Conex.Explore.n_simulations
      (List.length r.Conex.Explore.pareto_cost_perf)
      r.Conex.Explore.wall_seconds
      (if r.Conex.Explore.interrupted then
         " [interrupted: committed prefix only]"
       else "");
    (* the detailed report, printed after the persistent-cache summary *)
    fun () ->
    if plot then
      print_string
        (Conex.Report.ascii_scatter ~x:Conex.Design.cost ~y:Conex.Design.latency
           ~highlight:r.Conex.Explore.pareto_cost_perf
           r.Conex.Explore.simulated);
    (match scenario with
    | None ->
      Conex.Report.print_designs ~title:"cost/performance pareto designs:"
        r.Conex.Explore.pareto_cost_perf
    | Some sc ->
      Conex.Report.print_designs
        ~title:(Conex.Scenario.to_string sc ^ " designs:")
        (Conex.Scenario.select sc r.Conex.Explore.simulated));
    Option.iter
      (fun path ->
        Conex.Report.save_csv r.Conex.Explore.simulated ~path;
        Printf.printf "\n%d simulated designs exported to %s\n"
          (List.length r.Conex.Explore.simulated)
          path)
      csv;
    Option.iter
      (fun path ->
        Conex.Report.save_csv r.Conex.Explore.pareto_cost_perf ~path;
        Printf.printf "\n%d pareto designs exported to %s%s\n"
          (List.length r.Conex.Explore.pareto_cost_perf)
          path
          (if r.Conex.Explore.interrupted then
             " (anytime front of the committed prefix)"
           else ""))
      front_out;
    if bus_report then begin
      match List.rev r.Conex.Explore.pareto_cost_perf with
      | [] -> ()
      | best :: _ ->
        let _, stats =
          Mx_sim.Cycle_sim.run_traced ~workload:w ~arch:best.Conex.Design.mem
            ~conn:best.Conex.Design.conn ()
        in
        Printf.printf "\nbus utilisation of the best design (%s):\n"
          (Conex.Design.id best);
        let t =
          Mx_util.Table.create
            ~headers:
              [ "component"; "carries"; "txns"; "busy [cy]"; "waits [cy]";
                "utilisation" ]
        in
        List.iter
          (fun (b : Mx_sim.Cycle_sim.bus_stat) ->
            Mx_util.Table.add_row t
              [
                b.Mx_sim.Cycle_sim.component;
                b.Mx_sim.Cycle_sim.carries;
                string_of_int b.Mx_sim.Cycle_sim.txns;
                string_of_int b.Mx_sim.Cycle_sim.busy_cycles;
                string_of_int b.Mx_sim.Cycle_sim.wait_cycles;
                Printf.sprintf "%.1f%%"
                  (100.0 *. b.Mx_sim.Cycle_sim.utilization);
              ])
          stats;
        Mx_util.Table.print t
    end
  in
  let plot_arg =
    Arg.(value & flag & info [ "plot" ] ~doc:"Print an ASCII scatter plot.")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Export all simulated designs as CSV.")
  in
  let front_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "front-out" ] ~docv:"FILE"
          ~doc:
            "Export the cost/performance pareto front as CSV, and make the \
             run $(i,anytime): SIGINT stops the exploration at the next \
             commit boundary instead of killing it, and the exported front \
             is a valid pareto front of exactly the work committed so far.")
  in
  let bus_report_arg =
    Arg.(
      value & flag
      & info [ "bus-report" ]
          ~doc:"Print per-component utilisation of the best pareto design.")
  in
  let policies_arg =
    let doc =
      "Comma-separated replacement policies crossed onto every cache of the \
       catalogue, widening the design space (same capacity, different policy \
       = different pareto point).  Accepts policy names \
       ($(b,true_lru), $(b,fifo), $(b,tree_plru), $(b,qlru_h11_m1), \
       $(b,qlru_h00_m0), $(b,mru_n)) and CPU presets ($(b,core2), \
       $(b,nehalem), $(b,sandybridge), $(b,haswell), $(b,skylake), \
       $(b,coffeelake)).  Duplicate policies (aliasing presets) are run \
       once.  Default: true_lru only, the pre-policy behaviour."
    in
    Arg.(
      value & opt (some string) None
      & info [ "policies" ] ~docv:"LIST" ~doc)
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Full two-phase ConEx exploration")
    Term.(
      const run $ workload_arg $ scale_arg $ seed_arg $ reduced_arg
      $ run_opts_term $ policies_arg $ scenario_arg $ plot_arg $ trace_in_arg
      $ csv_arg $ front_out_arg $ bus_report_arg $ run_dir_arg)

(* -- select: re-select from a saved CSV ---------------------------------- *)

let select_cmd =
  let run path scenario =
    let sc = parse_scenario scenario in
    let content =
      let ic =
        try open_in path with Sys_error msg -> die_io "cannot read CSV: %s" msg
      in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let n = in_channel_length ic in
          really_input_string ic n)
    in
    let designs = Conex.Report.parse_csv content in
    if designs = [] then die_io "no data rows in %s" path;
    let keep (_, c, l, e) =
      match sc with
      | Conex.Scenario.Power_constrained v -> e <= v
      | Conex.Scenario.Cost_constrained v -> c <= v
      | Conex.Scenario.Perf_constrained v -> l <= v
    in
    let x, y =
      match sc with
      | Conex.Scenario.Power_constrained _ ->
        ((fun (_, c, _, _) -> c), fun (_, _, l, _) -> l)
      | Conex.Scenario.Cost_constrained _ ->
        ((fun (_, _, l, _) -> l), fun (_, _, _, e) -> e)
      | Conex.Scenario.Perf_constrained _ ->
        ((fun (_, c, _, _) -> c), fun (_, _, _, e) -> e)
    in
    let front = designs |> List.filter keep |> Mx_util.Pareto.front2 ~x ~y in
    Printf.printf "%s over %d saved designs:\n"
      (Conex.Scenario.to_string sc) (List.length designs);
    List.iter
      (fun (id, c, l, e) ->
        Printf.printf "  %8.0f gates  %6.2f cy  %6.2f nJ   %s\n" c l e id)
      front
  in
  let csv_in_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"CSV produced by 'explore --csv'.")
  in
  let scen_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "scenario" ] ~docv:"KIND=V"
          ~doc:"power=<nJ> | cost=<gates> | perf=<cycles>.")
  in
  Cmd.v
    (Cmd.info "select"
       ~doc:"Constrained re-selection over previously exported designs")
    Term.(const run $ csv_in_arg $ scen_arg)

(* -- strategies ---------------------------------------------------------- *)

let strategies_cmd =
  let run name scale seed full_budget (o : run_opts) =
    check_workload_name name;
    if full_budget <= 0 then
      die_usage "--full-budget must be positive (got %d)" full_budget;
    let w = make_workload name ~scale ~seed in
    with_run o @@ fun () ->
    let config = config_of_reduced ~shards:o.shards true o.jobs in
    let full =
      try Conex.Strategy.run ~config ~full_budget Conex.Strategy.Full w
      with Conex.Strategy.Full_infeasible { projected_sims; budget } ->
        die_usage
          "full strategy infeasible: %d projected simulations exceed the \
           budget of %d (raise --full-budget or shrink the catalogue)"
          projected_sims budget
    in
    List.iter
      (fun kind ->
        let outcome = Conex.Strategy.run ~config kind w in
        let r = Conex.Coverage.eval ~reference:full outcome in
        Format.printf "%a@." Conex.Coverage.pp r)
      [ Conex.Strategy.Pruned; Conex.Strategy.Neighborhood ];
    let rf = Conex.Coverage.eval ~reference:full full in
    Format.printf "%a@." Conex.Coverage.pp rf;
    ignore
  in
  let full_budget_arg =
    let doc =
      "Simulation budget for the Full strategy: the run aborts (exit 2, \
       before any simulation) when the projected number of full simulations \
       exceeds $(docv)."
    in
    Arg.(value & opt int 300_000 & info [ "full-budget" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "strategies"
       ~doc:"Compare Pruned / Neighborhood / Full exploration strategies")
    Term.(
      const run $ workload_arg $ scale_arg $ seed_arg $ full_budget_arg
      $ run_opts_term)

(* -- serve: long-running JSONL evaluation front-end ----------------------- *)

(* One JSON object per line in, one per line out.  Ops:

     {"op": "ping", "id": 1}
     {"op": "explore", "id": 2, "workload": "mixed",
      "scale": 12000, "seed": 7, "reduced": true}
     {"op": "stats", "id": 3}
     {"op": "shutdown", "id": 4}

   A malformed line or an unknown/invalid request produces a
   per-request {"status": "error"} response — never process death (the
   per-request [die_usage] discipline of the batch commands would kill
   every other client's session).  Responses to identical explore
   requests are deduplicated through a single-flight response cache, so
   a duplicate is answered byte-identically (modulo the "dedup" flag
   and the caller's "id") without re-running the funnel. *)

module Serve = struct
  module J = Mx_util.Json

  (* request ids are echoed verbatim; anything non-scalar is nulled *)
  let id_json = function
    | Some ((J.Num _ | J.Str _ | J.Bool _) as v) -> v
    | _ -> J.Null

  let response ~id fields = J.to_string (J.Obj (("id", id_json id) :: fields))
  let ok_op op = [ ("status", J.Str "ok"); ("op", J.Str op) ]

  type counters = {
    mutable requests : int;
    mutable ok : int;
    mutable errors : int;
    mutable dedup : int;
  }

  (* the deterministic fields of an explore response: everything but
     the caller's id and the dedup flag.  These are what the response
     cache stores, so duplicates answer byte-identically. *)
  let explore_body ~jobs ~shards ~workload ~scale ~seed ~reduced () =
    let w = make_workload workload ~scale ~seed in
    let config = config_of_reduced ~shards reduced jobs in
    let r = Conex.Explore.run ~config w in
    let point d =
      J.Obj
        [
          ("design", J.Str (Conex.Design.id d));
          ("cost_gates", J.int d.Conex.Design.cost_gates);
          ("avg_mem_latency", J.Num (Conex.Design.latency d));
          ("avg_energy_nj", J.Num (Conex.Design.energy d));
        ]
    in
    ok_op "explore"
    @ [
        ("workload", J.Str workload);
        ("scale", J.int scale);
        ("seed", J.int seed);
        ("reduced", J.Bool reduced);
        ("n_estimates", J.int r.Conex.Explore.n_estimates);
        ("n_simulations", J.int r.Conex.Explore.n_simulations);
        ("front", J.Arr (List.map point r.Conex.Explore.pareto_cost_perf));
      ]

  let stats_body c =
    let ints kv = J.Obj (List.map (fun (k, v) -> (k, J.int v)) kv) in
    let mc : Mx_util.Memo_cache.stats = Mx_sim.Eval.cache_stats () in
    let persist (s : Mx_util.Persist_cache.stats) =
      ints
        [
          ("entries", s.entries);
          ("hits", s.get_hits);
          ("writes", s.appended);
          ("recovered", s.recovered);
        ]
    in
    ok_op "stats"
    @ [
        ( "serve",
          ints
            [
              ("requests", c.requests);
              ("ok", c.ok);
              ("errors", c.errors);
              ("dedup", c.dedup);
            ] );
        ( "eval_cache",
          ints
            [ ("entries", mc.size); ("hits", mc.hits); ("misses", mc.misses) ]
        );
        ( "persist",
          Option.fold ~none:J.Null ~some:persist (Mx_sim.Eval.persist_stats ())
        );
      ]

  (* handle one request line; returns the response and whether to keep
     serving.  Every failure path is a per-request error response. *)
  let handle ~counters:c ~resp_cache ~jobs ~shards line =
    c.requests <- c.requests + 1;
    let fail ~id fmt =
      Printf.ksprintf
        (fun msg ->
          c.errors <- c.errors + 1;
          ( response ~id [ ("status", J.Str "error"); ("error", J.Str msg) ],
            `Continue ))
        fmt
    in
    let ok ~id ?(verdict = `Continue) fields =
      c.ok <- c.ok + 1;
      (response ~id fields, verdict)
    in
    match J.parse line with
    | Error msg -> fail ~id:None "malformed request: %s" msg
    | Ok req -> (
      let id = J.member "id" req in
      match Option.bind (J.member "op" req) J.to_string_opt with
      | None -> fail ~id "missing or non-string \"op\""
      | Some "ping" -> ok ~id (ok_op "ping")
      | Some "stats" -> ok ~id (stats_body c)
      | Some "shutdown" -> ok ~id ~verdict:`Shutdown (ok_op "shutdown")
      | Some "explore" -> (
        (* an absent field takes its default; a present one must have
           the field's type *)
        let field name kind conv default =
          match J.member name req with
          | None -> Ok default
          | Some v -> Option.to_result ~none:(name, kind) (conv v)
        in
        let ( let* ) = Result.bind in
        match
          let* workload = field "workload" "a string" J.to_string_opt "" in
          let* scale = field "scale" "an integer" J.to_int_opt 12_000 in
          let* seed = field "seed" "an integer" J.to_int_opt 7 in
          let* reduced = field "reduced" "a boolean" J.to_bool_opt true in
          Ok (workload, scale, seed, reduced)
        with
        | Error (name, kind) -> fail ~id "field %S must be %s" name kind
        | Ok (workload, scale, seed, reduced) ->
          if not (List.mem workload workload_names) then
            fail ~id "unknown workload %S (expected %s)" workload
              (String.concat "|" workload_names)
          else if scale <= 0 then fail ~id "scale must be positive (got %d)" scale
          else
            let fp =
              Printf.sprintf "explore|%s|%d|%d|%b" workload scale seed reduced
            in
            match
              Mx_util.Memo_cache.find_or_compute_prov resp_cache ~key:fp
                (explore_body ~jobs ~shards ~workload ~scale ~seed ~reduced)
            with
            | body, deduped ->
              if deduped then c.dedup <- c.dedup + 1;
              ok ~id (("dedup", J.Bool deduped) :: body)
            | exception exn -> fail ~id "explore failed: %s" (Printexc.to_string exn))
      | Some other -> fail ~id "unknown op %S" other)
end

(* Clear the way to bind [path]: a socket that refuses a connection is
   a dead server's and goes; anything else there (a live server, a
   file) stays, and serve exits 1. *)
let remove_stale_socket path =
  let fail e = die_io "cannot serve on %s: %s" path e in
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
  | Unix.S_SOCK -> (
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      Unix.close fd;
      fail "another server is listening there"
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> (
      Unix.close fd;
      try Sys.remove path with Sys_error e -> fail e)
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      fail (Unix.error_message e))
  | _ -> fail "it exists and is not a socket"

let serve_cmd =
  let run cache_dir socket jobs shards cache_size =
    check_shards shards;
    Option.iter remove_stale_socket socket;
    let jobs = max 1 jobs in
    (* a client that vanishes before its reply must not kill the
       server: a write to it then fails with EPIPE, a [Sys_error] that
       ends only that connection *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    tiers_begin ~cache_size cache_dir;
    let counters =
      { Serve.requests = 0; ok = 0; errors = 0; dedup = 0 }
    in
    let resp_cache : (string * Mx_util.Json.t) list Mx_util.Memo_cache.t =
      Mx_util.Memo_cache.create ~capacity:4096 ()
    in
    let stop = ref false in
    let serve_channel ic oc =
      let eof = ref false in
      while not (!stop || !eof) do
        match input_line ic with
        | exception End_of_file -> eof := true
        | line when String.trim line = "" -> ()
        | line ->
          let resp, verdict =
            Serve.handle ~counters ~resp_cache ~jobs ~shards line
          in
          (* before the reply: a client that leaves without reading it
             still shuts the server down *)
          if verdict = `Shutdown then stop := true;
          output_string oc resp;
          output_char oc '\n';
          flush oc
      done
    in
    (match socket with
    | None -> (
      (* a closed stdout ends the session like end of input; closing
         the channel drops the reply it could not write, which a later
         flush would otherwise retry and fail on at exit *)
      try serve_channel stdin stdout
      with Sys_error _ -> close_out_noerr stdout)
    | Some path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 8
       with Unix.Unix_error (e, _, _) ->
         die_io "cannot bind socket %s: %s" path (Unix.error_message e));
      prerr_endline ("serving on " ^ path);
      while not !stop do
        let client, _ = Unix.accept fd in
        let ic = Unix.in_channel_of_descr client in
        let oc = Unix.out_channel_of_descr client in
        (try serve_channel ic oc with Sys_error _ -> ());
        (* flushes what it can and closes [client]; a reply the peer
           never read is dropped with the channel, so no later flush
           can write it to a reused descriptor *)
        close_out_noerr oc
      done;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Sys.file_exists path then Sys.remove path);
    (* graceful shutdown: flush and seal the active segment, and keep
       stdout clean — it is the protocol stream *)
    tiers_end stderr cache_dir
  in
  let socket_arg =
    let doc =
      "Accept requests on a Unix domain socket bound at $(docv) (connections \
       are served one at a time) instead of reading stdin.  The socket file \
       is created on start and removed on shutdown.  A stale socket left \
       at $(docv) is replaced; a live server's socket or any other file \
       there is left alone, and serve exits 1."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running evaluation front-end: JSONL requests on stdin (or a \
          Unix socket) are answered on stdout, one response per line.  \
          Identical explore requests are deduplicated through a \
          single-flight response cache, sub-evaluations share the process's \
          two cache tiers, and with --cache-dir every result lands in the \
          persistent store, which a graceful shutdown (the \"shutdown\" op \
          or EOF) flushes and seals.")
    Term.(
      const run $ cache_dir_arg $ socket_arg $ jobs_arg $ shards_arg
      $ cache_size_arg)

(* -- explain: funnel reconstruction from a saved event log --------------- *)

let explain_cmd =
  let run events_path design =
    match Mx_util.Event_log.load_jsonl ~path:events_path with
    | Error msg -> die_io "cannot load events: %s" msg
    | Ok { Mx_util.Event_log.events; truncated } -> (
      match design with
      | None -> print_string (Conex.Explain.summary ~truncated events)
      | Some key -> (
        match Conex.Explain.lifecycle events ~key with
        | Ok s -> print_string s
        | Error msg -> die_usage "%s" msg))
  in
  let events_in_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:"JSONL event log produced by 'explore --events-out'.")
  in
  let design_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "design" ] ~docv:"KEY"
          ~doc:
            "Show the full lifecycle of one design instead of the funnel \
             summary.  KEY is a structural key (or unique prefix) as printed \
             in the log's 'design' attributes.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Reconstruct an exploration funnel from a saved event log")
    Term.(const run $ events_in_arg $ design_arg)

(* -- status: render a live status snapshot ------------------------------- *)

let status_cmd =
  let run path json =
    let text =
      try In_channel.with_open_text path In_channel.input_all
      with Sys_error msg -> die_io "cannot read status file: %s" msg
    in
    match Mx_util.Snapshot.of_json text with
    | Error msg -> die_io "cannot parse status file %s: %s" path msg
    | Ok s ->
      print_string
        (if json then Mx_util.Snapshot.to_json s
         else Mx_util.Snapshot.to_text s)
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Status snapshot written by 'explore --status-out'.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the snapshot document as JSON instead of text.")
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Render a live status snapshot (written on a cadence by a running \
          'explore --status-out'): phase, shard progress with ETA, eval \
          throughput, cache hit rate, per-domain utilization and the stall \
          flag.  Reads are safe at any moment — snapshots are published \
          atomically.")
    Term.(const run $ file_arg $ json_arg)

(* -- runs: the persistent run ledger ------------------------------------- *)

let runs_list_cmd =
  let run dir =
    match Conex.Ledger.list ~dir with
    | Error msg -> die_io "cannot list ledger %s: %s" dir msg
    | Ok [] -> Printf.printf "no run manifests in %s\n" dir
    | Ok entries ->
      let t =
        Mx_util.Table.create
          ~headers:
            [ "manifest"; "run id"; "kind"; "workload"; "wall [s]"; "front";
              "cache hits"; "flags" ]
      in
      List.iter
        (fun (name, (m : Conex.Ledger.manifest)) ->
          Mx_util.Table.add_row t
            [
              name;
              m.Conex.Ledger.run_id;
              m.Conex.Ledger.kind;
              m.Conex.Ledger.workload_name;
              Printf.sprintf "%.2f" m.Conex.Ledger.wall_seconds;
              string_of_int (List.length m.Conex.Ledger.front);
              Printf.sprintf "%.1f%%" (100.0 *. Conex.Ledger.cache_hit_rate m);
              (if m.Conex.Ledger.interrupted then "interrupted" else "");
            ])
        entries;
      Mx_util.Table.print t
  in
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:"Ledger directory populated by 'explore --run-dir'.")
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the run manifests in a ledger directory")
    Term.(const run $ dir_arg)

let runs_diff_cmd =
  let run a_path b_path max_wall_ratio max_hit_drop min_front_coverage =
    if max_wall_ratio <= 0.0 then
      die_usage "--max-wall-ratio must be positive (got %g)" max_wall_ratio;
    if min_front_coverage < 0.0 || min_front_coverage > 1.0 then
      die_usage "--min-front-coverage must be in [0, 1] (got %g)"
        min_front_coverage;
    let load path =
      match Conex.Ledger.load ~path with
      | Ok m -> m
      | Error msg -> die_io "cannot load manifest: %s" msg
    in
    let a = load a_path and b = load b_path in
    let thresholds =
      { Conex.Ledger.max_wall_ratio; max_hit_drop; min_front_coverage }
    in
    let d = Conex.Ledger.compare_runs ~thresholds a b in
    print_string (Conex.Ledger.render_diff d);
    if Conex.Ledger.regressed d then exit 1
  in
  let manifest_pos i name =
    Arg.(
      required
      & pos i (some string) None
      & info [] ~docv:name ~doc:("Run manifest " ^ name ^ " (a JSON file)."))
  in
  let max_wall_ratio_arg =
    Arg.(
      value & opt float 1.25
      & info [ "max-wall-ratio" ] ~docv:"X"
          ~doc:
            "Flag a wall-time regression when B takes more than $(docv) \
             times A's wall time.")
  in
  let max_hit_drop_arg =
    Arg.(
      value & opt float 10.0
      & info [ "max-hit-drop" ] ~docv:"PP"
          ~doc:
            "Flag a cache regression when B's hit rate drops more than \
             $(docv) percentage points below A's.")
  in
  let min_front_coverage_arg =
    Arg.(
      value & opt float 0.99
      & info [ "min-front-coverage" ] ~docv:"FRACTION"
          ~doc:
            "Flag a front regression when B's front covers (weakly \
             dominates) less than this fraction of A's front points.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two run manifests and flag regressions (wall time, cache \
          hit rate, front coverage) against thresholds.  Exits 1 when any \
          threshold trips, 0 otherwise.")
    Term.(
      const run
      $ manifest_pos 0 "A"
      $ manifest_pos 1 "B"
      $ max_wall_ratio_arg $ max_hit_drop_arg $ min_front_coverage_arg)

let runs_cmd =
  Cmd.group
    (Cmd.info "runs"
       ~doc:
         "Inspect the persistent run ledger written by 'explore --run-dir' \
          and the bench harness")
    [ runs_list_cmd; runs_diff_cmd ]

(* -- check: the model-based correctness harness -------------------------- *)

let check_cmd =
  let module Suites = Mx_check.Suites in
  let module Runner = Mx_check.Runner in
  let run suite seed count list jobs =
    if list then begin
      List.iter print_endline Suites.names;
      exit 0
    end;
    if count <= 0 then die_usage "--count must be positive (got %d)" count;
    if jobs <= 0 then die_usage "--jobs must be positive (got %d)" jobs;
    let suites =
      match suite with
      | None -> Suites.all ~jobs ()
      | Some name -> (
        match Suites.find ~jobs name with
        | Some props -> [ (name, props) ]
        | None ->
          die_usage "unknown suite %S (expected %s)" name
            (String.concat "|" Suites.names))
    in
    let fixed = Runner.env_fixed () in
    (match fixed with
    | Some (s, z) ->
      Printf.printf
        "replaying the fixed case CONEX_CHECK_SEED=%d CONEX_CHECK_SIZE=%d\n" s
        z
    | None -> ());
    let failed = ref false in
    List.iter
      (fun (name, props) ->
        let r = Runner.run_suite ?fixed ~master:seed ~count (name, props) in
        if r.Runner.failures = [] then
          Printf.printf "ok   %-12s %3d properties  %5d cases\n%!" name
            r.Runner.props r.Runner.cases
        else begin
          failed := true;
          Printf.printf "FAIL %-12s %3d properties  %5d cases  %d failing\n%!"
            name r.Runner.props r.Runner.cases
            (List.length r.Runner.failures);
          List.iter
            (fun (f : Runner.failure) ->
              Printf.printf "  property: %s\n" f.Runner.prop_name;
              Printf.printf "    %s\n" f.Runner.message;
              if f.Runner.shrunk_from > f.Runner.size then
                Printf.printf "    shrunk from size %d to size %d\n"
                  f.Runner.shrunk_from f.Runner.size;
              Printf.printf "    repro: %s\n%!" (Runner.repro ~suite:name f))
            r.Runner.failures
        end)
      suites;
    if !failed then exit 1
  in
  let suite_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "suite" ] ~docv:"NAME"
          ~doc:
            "Run a single suite instead of all of them (see --list for the \
             names).")
  in
  let check_seed_arg =
    let doc =
      "Master seed; every case seed is derived from it, so one integer \
       reproduces a whole run."
    in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let count_arg =
    let doc =
      "Case budget per property (properties with cost c run count/c cases, \
       at least one)."
    in
    Arg.(value & opt int 100 & info [ "count" ] ~docv:"N" ~doc)
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"Print the suite names and exit.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the model-based correctness harness (reference oracles, \
          invariants, metamorphic properties) over generated inputs.  Exits \
          0 when every property holds, 1 with a shrunk, reproducible \
          counterexample otherwise.")
    Term.(
      const run $ suite_arg $ check_seed_arg $ count_arg $ list_arg $ jobs_arg)

(* -- trace: record / compact / inspect / stat ---------------------------- *)

let format_enum =
  Arg.enum
    [ ("text", Mx_trace.Trace_io.Text); ("binary", Mx_trace.Trace_io.Binary) ]

let trace_file_size path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> in_channel_length ic)
  with Sys_error msg -> die_io "cannot read %s: %s" path msg

let load_trace_file path =
  try Mx_trace.Trace_io.load ~path with
  | Sys_error msg -> die_io "cannot load trace: %s" msg
  | Mx_trace.Trace_io.Parse_error { line; message } ->
    die_io "cannot load trace %s: line %d: %s" path line message

let open_trace_stream path =
  try Mx_trace.Trace_io.open_stream ~path with
  | Sys_error msg -> die_io "cannot open trace: %s" msg
  | Mx_trace.Trace_io.Parse_error { line; message } ->
    die_io "cannot open trace %s: line %d: %s" path line message

let detect_trace_format path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let magic = Mx_trace.Trace_codec.magic in
        let n = min (String.length magic) (in_channel_length ic) in
        if really_input_string ic n = magic then Mx_trace.Trace_io.Binary
        else Mx_trace.Trace_io.Text)
  with Sys_error msg -> die_io "cannot read %s: %s" path msg

let bytes_per_access ~bytes ~accesses =
  float_of_int bytes /. float_of_int (max 1 accesses)

let chunk_cap_arg =
  let doc =
    "Chunk capacity of the binary format, in accesses (smaller chunks seek \
     finer, larger chunks compress slightly better)."
  in
  Arg.(value & opt (some int) None & info [ "chunk" ] ~docv:"N" ~doc)

let check_chunk_cap = function
  | Some c when c <= 0 -> die_usage "--chunk must be positive (got %d)" c
  | _ -> ()

let trace_record_cmd =
  let run name scale seed out format chunk_cap =
    check_workload_name name;
    check_chunk_cap chunk_cap;
    validate_out_path (Some out);
    let w = make_workload name ~scale ~seed in
    (try Mx_trace.Trace_io.save ~format ?chunk_cap w ~path:out
     with Sys_error msg -> die_io "cannot save trace: %s" msg);
    let n = Mx_trace.Workload.access_count w in
    let bytes = trace_file_size out in
    Printf.printf "%s: %d accesses -> %s (%d bytes, %.2f bytes/access)\n" name
      n out bytes
      (bytes_per_access ~bytes ~accesses:n)
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let format_arg =
    Arg.(
      value
      & opt format_enum Mx_trace.Trace_io.Binary
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,binary) (default) or $(b,text).")
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Generate a workload and save its trace to a file")
    Term.(
      const run $ workload_arg $ scale_arg $ seed_arg $ out_arg $ format_arg
      $ chunk_cap_arg)

let trace_compact_cmd =
  let run inp out format chunk_cap =
    check_chunk_cap chunk_cap;
    validate_out_path (Some out);
    let w = load_trace_file inp in
    (try Mx_trace.Trace_io.save ~format ?chunk_cap w ~path:out
     with Sys_error msg -> die_io "cannot save trace: %s" msg);
    let before = trace_file_size inp and after = trace_file_size out in
    Printf.printf "%s (%d bytes) -> %s (%d bytes, %.2fx)\n" inp before out
      after
      (float_of_int after /. float_of_int (max 1 before))
  in
  let in_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"IN" ~doc:"Input trace file (either format).")
  in
  let out_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"OUT" ~doc:"Output trace file.")
  in
  let to_arg =
    Arg.(
      value
      & opt format_enum Mx_trace.Trace_io.Binary
      & info [ "to" ] ~docv:"FORMAT"
          ~doc:"Target format: $(b,binary) (default) or $(b,text).")
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Re-encode a trace file (text <-> compact binary)")
    Term.(const run $ in_arg $ out_arg $ to_arg $ chunk_cap_arg)

let trace_path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Trace file (either format).")

let trace_inspect_cmd =
  let run path =
    let fmt = detect_trace_format path in
    let bytes = trace_file_size path in
    match fmt with
    | Mx_trace.Trace_io.Binary ->
      (* header + footer index only: constant time, no chunk decode *)
      let sw = open_trace_stream path in
      let st = sw.Mx_trace.Workload.s_stream in
      let index_bytes =
        (Mx_trace.Trace_stream.io_stats st).Mx_trace.Trace_stream.bytes_read
      in
      let n = Mx_trace.Trace_stream.length st in
      Printf.printf "format:    binary (MXTB v%d)\n"
        Mx_trace.Trace_codec.version;
      Printf.printf "workload:  %s\n" sw.Mx_trace.Workload.s_name;
      Printf.printf "cpu_ops:   %d\n" sw.Mx_trace.Workload.s_cpu_ops;
      Printf.printf "accesses:  %d\n" n;
      Printf.printf "chunks:    %d x %d accesses\n"
        (Mx_trace.Trace_stream.chunk_count st)
        (Mx_trace.Trace_stream.chunk_cap st);
      Printf.printf "file:      %d bytes (%.2f bytes/access, %d header+index)\n"
        bytes
        (bytes_per_access ~bytes ~accesses:n)
        index_bytes;
      List.iter
        (fun (r : Mx_trace.Region.t) ->
          Printf.printf "region %d: %s base=0x%x size=%d elem=%d hint=%s\n"
            r.Mx_trace.Region.id r.Mx_trace.Region.name r.Mx_trace.Region.base
            r.Mx_trace.Region.size r.Mx_trace.Region.elem_size
            (Mx_trace.Region.pattern_to_string r.Mx_trace.Region.hint))
        sw.Mx_trace.Workload.s_regions;
      Mx_trace.Trace_stream.close st
    | Mx_trace.Trace_io.Text ->
      let w = load_trace_file path in
      let n = Mx_trace.Workload.access_count w in
      Printf.printf "format:    text (memorex-trace v1)\n";
      Printf.printf "workload:  %s\n" w.Mx_trace.Workload.name;
      Printf.printf "cpu_ops:   %d\n" w.Mx_trace.Workload.cpu_ops;
      Printf.printf "accesses:  %d\n" n;
      Printf.printf "file:      %d bytes (%.2f bytes/access)\n" bytes
        (bytes_per_access ~bytes ~accesses:n);
      List.iter
        (fun (r : Mx_trace.Region.t) ->
          Printf.printf "region %d: %s base=0x%x size=%d elem=%d hint=%s\n"
            r.Mx_trace.Region.id r.Mx_trace.Region.name r.Mx_trace.Region.base
            r.Mx_trace.Region.size r.Mx_trace.Region.elem_size
            (Mx_trace.Region.pattern_to_string r.Mx_trace.Region.hint))
        w.Mx_trace.Workload.regions
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Print a trace file's header and chunk index without decoding the \
          accesses")
    Term.(const run $ trace_path_arg)

let trace_stat_cmd =
  let run path =
    let sw = open_trace_stream path in
    let st = sw.Mx_trace.Workload.s_stream in
    let n = Mx_trace.Trace_stream.length st in
    let reads = ref 0 and writes = ref 0 and traffic = ref 0 in
    let per_region = Hashtbl.create 16 in
    Mx_trace.Trace_stream.iter_packed st ~f:(fun ~addr:_ ~size ~kind ~region ->
        (match kind with
        | Mx_trace.Access.Read -> incr reads
        | Mx_trace.Access.Write -> incr writes);
        traffic := !traffic + size;
        let c, b =
          match Hashtbl.find_opt per_region region with
          | Some v -> v
          | None ->
            let v = (ref 0, ref 0) in
            Hashtbl.add per_region region v;
            v
        in
        incr c;
        b := !b + size);
    Mx_trace.Trace_stream.close st;
    let bytes = trace_file_size path in
    Printf.printf "%s: %d accesses (%d reads, %d writes), %d bytes of traffic\n"
      sw.Mx_trace.Workload.s_name n !reads !writes !traffic;
    Printf.printf "file: %d bytes, %.2f bytes/access\n" bytes
      (bytes_per_access ~bytes ~accesses:n);
    let t =
      Mx_util.Table.create
        ~headers:[ "region"; "accesses"; "share"; "traffic [B]" ]
    in
    let region_name id =
      match
        List.find_opt
          (fun (r : Mx_trace.Region.t) -> r.Mx_trace.Region.id = id)
          sw.Mx_trace.Workload.s_regions
      with
      | Some r -> r.Mx_trace.Region.name
      | None -> Printf.sprintf "#%d" id
    in
    Hashtbl.fold (fun id v acc -> (id, v) :: acc) per_region []
    |> List.sort compare
    |> List.iter (fun (id, (c, b)) ->
           Mx_util.Table.add_row t
             [
               region_name id;
               string_of_int !c;
               Printf.sprintf "%.1f%%"
                 (100.0 *. float_of_int !c /. float_of_int (max 1 n));
               string_of_int !b;
             ]);
    Mx_util.Table.print t
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:"Stream through a trace file and print access statistics")
    Term.(const run $ trace_path_arg)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Record, compact and inspect trace files (text and compact binary \
          formats)")
    [ trace_record_cmd; trace_compact_cmd; trace_inspect_cmd; trace_stat_cmd ]

let main_cmd =
  let doc = "Memory system connectivity exploration (ConEx, DATE 2002)" in
  Cmd.group
    (Cmd.info "conex" ~version:"1.0.0" ~doc)
    [
      profile_cmd; apex_cmd; explore_cmd; select_cmd; strategies_cmd;
      serve_cmd; explain_cmd; status_cmd; runs_cmd; check_cmd; trace_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
