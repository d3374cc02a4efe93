(* End-to-end CLI tests: exit-code conventions (0 ok, 1 I/O error,
   2 usage error, never cmdliner's 125 "internal error") and the
   --metrics/--trace-out observability outputs.

   The conex binary path arrives via CONEX_BIN, set by the dune test
   action.  When the variable is absent (e.g. running the raw test
   executable by hand) every case skips instead of failing. *)

let conex_bin = Sys.getenv_opt "CONEX_BIN"

let run_conex args =
  match conex_bin with
  | None -> Alcotest.skip ()
  | Some bin ->
    let out = Filename.temp_file "conex_out" ".txt" in
    let err = Filename.temp_file "conex_err" ".txt" in
    let cmd =
      Printf.sprintf "%s %s >%s 2>%s" (Filename.quote bin)
        (String.concat " " (List.map Filename.quote args))
        (Filename.quote out) (Filename.quote err)
    in
    let code = Sys.command cmd in
    let slurp path =
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Sys.remove path;
      s
    in
    (code, slurp out, slurp err)

(* run_conex with a stdin payload — the `conex serve` protocol tests
   feed the JSONL request stream this way *)
let run_conex_in ~input args =
  match conex_bin with
  | None -> Alcotest.skip ()
  | Some bin ->
    let inp = Filename.temp_file "conex_in" ".jsonl" in
    Out_channel.with_open_bin inp (fun oc ->
        Out_channel.output_string oc input);
    let out = Filename.temp_file "conex_out" ".txt" in
    let err = Filename.temp_file "conex_err" ".txt" in
    let cmd =
      Printf.sprintf "%s %s <%s >%s 2>%s" (Filename.quote bin)
        (String.concat " " (List.map Filename.quote args))
        (Filename.quote inp) (Filename.quote out) (Filename.quote err)
    in
    let code = Sys.command cmd in
    Sys.remove inp;
    let slurp path =
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Sys.remove path;
      s
    in
    (code, slurp out, slurp err)

let check_exit msg expected (code, _out, err) =
  if code <> expected then
    Alcotest.failf "%s: expected exit %d, got %d (stderr: %s)" msg expected
      code (String.trim err)

let check_no_internal_error (_code, _out, err) =
  Helpers.check_true "no cmdliner internal-error report"
    (not (Test_metrics.contains ~needle:"internal error" err))

(* fast arguments: tiny trace, reduced catalogue, serial *)
let fast = [ "--reduced"; "--scale"; "1500"; "--jobs"; "1" ]

let test_explore_ok () =
  let r = run_conex ([ "explore"; "-w"; "mixed" ] @ fast) in
  check_exit "valid explore" 0 r

let test_unknown_workload () =
  let ((_, _, err) as r) = run_conex ([ "explore"; "-w"; "nosuch" ] @ fast) in
  check_exit "unknown workload" 2 r;
  Helpers.check_true "stderr names the workload"
    (Test_metrics.contains ~needle:"nosuch" err);
  check_no_internal_error r

let test_bad_scenario () =
  (* the scenario is validated eagerly: a huge --scale must not matter *)
  let r =
    run_conex
      [ "explore"; "-w"; "mixed"; "--reduced"; "--scale"; "100000000";
        "--scenario"; "power=abc" ]
  in
  check_exit "malformed scenario value" 2 r;
  check_no_internal_error r

let test_bad_scenario_kind () =
  let r =
    run_conex ([ "explore"; "-w"; "mixed"; "--scenario"; "speed=3" ] @ fast)
  in
  check_exit "unknown scenario kind" 2 r;
  check_no_internal_error r

let test_bad_policy () =
  let ((_, _, err) as r) =
    run_conex ([ "explore"; "-w"; "mixed"; "--policies"; "nosuch" ] @ fast)
  in
  check_exit "unknown policy name" 2 r;
  Helpers.check_true "stderr names the bad policy"
    (Test_metrics.contains ~needle:"nosuch" err);
  check_no_internal_error r

let test_policies_explore_ok () =
  let r =
    run_conex
      ([ "explore"; "-w"; "mixed"; "--policies"; "true_lru,haswell" ] @ fast)
  in
  check_exit "explore with a policy list" 0 r

let test_missing_trace_file () =
  let ((_, _, err) as r) =
    run_conex [ "explore"; "--trace"; "/nonexistent/conex-test.trace" ]
  in
  check_exit "missing trace file is an I/O error" 1 r;
  Helpers.check_true "clean diagnostic on stderr"
    (Test_metrics.contains ~needle:"cannot load trace" err);
  check_no_internal_error r

let test_negative_address_trace () =
  let path = Filename.temp_file "conex_negative" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "# memorex-trace v1\nworkload neg\ncpu_ops 1\n\
         region 0 a 0x1000 64 4 stream\ntrace 1\nR -0x1000 4 0\n";
      close_out oc;
      let ((_, _, err) as r) =
        run_conex [ "explore"; "--trace"; path; "--reduced" ]
      in
      check_exit "negative-address trace is an I/O error" 1 r;
      Helpers.check_true "diagnostic names the line"
        (Test_metrics.contains ~needle:"line 6: negative address" err);
      check_no_internal_error r)

let test_select_missing_csv () =
  let r =
    run_conex
      [ "select"; "--csv"; "/nonexistent/conex-test.csv"; "--scenario";
        "cost=10000" ]
  in
  check_exit "missing CSV is an I/O error" 1 r;
  check_no_internal_error r

let test_metrics_json_on_stdout () =
  let ((_, out, _) as r) =
    run_conex ([ "explore"; "-w"; "mixed"; "--metrics"; "json" ] @ fast)
  in
  check_exit "explore --metrics json" 0 r;
  (* the JSON document is the last line on stdout *)
  let doc =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | last :: _ -> last
    | [] -> ""
  in
  Test_metrics.check_json "--metrics json document" doc;
  List.iter
    (fun needle ->
      Helpers.check_true
        (Printf.sprintf "metrics mention %s" needle)
        (Test_metrics.contains ~needle doc))
    [
      "explore.estimates"; "explore.simulations"; "cycle_sim.accesses";
      "utilization"; "\"spans\""; "explore.run:mixed";
    ]

let test_trace_out_file () =
  let path = Filename.temp_file "conex_trace" ".json" in
  let r =
    run_conex ([ "explore"; "-w"; "mixed"; "--trace-out"; path ] @ fast)
  in
  check_exit "explore --trace-out" 0 r;
  let ic = open_in_bin path in
  let doc =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  Test_metrics.check_json "--trace-out document" doc;
  Helpers.check_true "trace has the span forest"
    (Test_metrics.contains ~needle:"\"spans\"" doc)

(* output paths are validated eagerly: a huge --scale proves no
   exploration work happened before the rejection *)
let test_trace_out_unwritable () =
  let r =
    run_conex
      [ "explore"; "-w"; "mixed"; "--reduced"; "--scale"; "100000000";
        "--trace-out"; "/nonexistent/dir/t.json" ]
  in
  check_exit "unwritable trace path is a usage error (eager)" 2 r;
  check_no_internal_error r

let test_strategies_trace_out_unwritable () =
  let r =
    run_conex
      [ "strategies"; "-w"; "mixed"; "--scale"; "100000000"; "--trace-out";
        "/nonexistent/dir/t.json" ]
  in
  check_exit "strategies validates --trace-out eagerly" 2 r;
  check_no_internal_error r

let test_events_out_unwritable () =
  List.iter
    (fun cmd ->
      let r =
        run_conex
          [ cmd; "-w"; "mixed"; "--scale"; "100000000"; "--events-out";
            "/nonexistent/dir/e.jsonl" ]
      in
      check_exit (cmd ^ " validates --events-out eagerly") 2 r;
      check_no_internal_error r)
    [ "explore"; "strategies" ]

let test_events_out_file () =
  let path = Filename.temp_file "conex_events" ".jsonl" in
  let ((_, _, _) as r) =
    run_conex ([ "explore"; "-w"; "mixed"; "--events-out"; path ] @ fast)
  in
  check_exit "explore --events-out" 0 r;
  let ic = open_in_bin path in
  let doc =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let lines =
    String.split_on_char '\n' doc |> List.filter (fun l -> String.trim l <> "")
  in
  Helpers.check_true "events were recorded" (lines <> []);
  List.iter
    (fun line ->
      match Mx_util.Event_log.event_of_line line with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "unparseable event line (%s): %s" m line)
    lines;
  Helpers.check_true "log has terminal verdicts"
    (Test_metrics.contains ~needle:"design.kept" doc);
  (* explain reconstructs the funnel from the file we just wrote *)
  let ((_, out, _) as r2) = run_conex [ "explain"; "--events"; path ] in
  check_exit "explain on a fresh log" 0 r2;
  List.iter
    (fun needle ->
      Helpers.check_true
        (Printf.sprintf "explain mentions %s" needle)
        (Test_metrics.contains ~needle out))
    [ "Funnel summary"; "Phase I"; "Phase II" ];
  (* an unknown design key is a usage error *)
  let r3 =
    run_conex [ "explain"; "--events"; path; "--design"; "nosuchkey" ]
  in
  check_exit "explain --design with a bogus key" 2 r3;
  check_no_internal_error r3;
  Sys.remove path

let test_explain_missing_file () =
  let r =
    run_conex [ "explain"; "--events"; "/nonexistent/conex-events.jsonl" ]
  in
  check_exit "missing event log is an I/O error" 1 r;
  check_no_internal_error r

let test_chrome_out_file () =
  let path = Filename.temp_file "conex_chrome" ".json" in
  let r =
    run_conex ([ "explore"; "-w"; "mixed"; "--chrome-out"; path ] @ fast)
  in
  check_exit "explore --chrome-out" 0 r;
  let ic = open_in_bin path in
  let doc =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove path;
  Test_metrics.check_json "--chrome-out document" doc;
  List.iter
    (fun needle ->
      Helpers.check_true
        (Printf.sprintf "chrome trace mentions %s" needle)
        (Test_metrics.contains ~needle doc))
    [ "traceEvents"; "explore.run:mixed" ]

let test_strategies_metrics () =
  let ((_, out, _) as r) =
    run_conex
      [ "strategies"; "-w"; "mixed"; "--scale"; "1500"; "--jobs"; "1";
        "--metrics"; "text" ]
  in
  check_exit "strategies --metrics text" 0 r;
  List.iter
    (fun needle ->
      Helpers.check_true
        (Printf.sprintf "report mentions %s" needle)
        (Test_metrics.contains ~needle out))
    [ "strategy.pruned"; "strategy.full"; "strategy.neighborhood" ]

(* -- sharded / anytime exploration and the full-budget guard ------------ *)

let test_explore_shards_front_out () =
  let path = Filename.temp_file "conex_front" ".csv" in
  let ((_, out, _) as r) =
    run_conex
      ([ "explore"; "-w"; "mixed"; "--shards"; "3"; "--front-out"; path ]
      @ fast)
  in
  check_exit "explore --shards --front-out" 0 r;
  Helpers.check_true "reports the export"
    (Test_metrics.contains ~needle:"pareto designs exported" out);
  let ic = open_in path in
  let header =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
  in
  Sys.remove path;
  Helpers.check_true "front CSV has the design header"
    (Test_metrics.contains ~needle:"cost_gates" header)

let test_bad_shards () =
  let ((_, _, err) as r) =
    run_conex ([ "explore"; "-w"; "mixed"; "--shards"; "0" ] @ fast)
  in
  check_exit "non-positive shards" 2 r;
  Helpers.check_true "stderr names the flag"
    (Test_metrics.contains ~needle:"--shards" err);
  check_no_internal_error r

(* Strategy.Full_infeasible's payload must round-trip into the error
   message: both the projected simulation count and the budget. *)
let test_strategies_full_budget_infeasible () =
  let ((_, _, err) as r) =
    run_conex
      [ "strategies"; "-w"; "mixed"; "--scale"; "1500"; "--jobs"; "1";
        "--full-budget"; "1" ]
  in
  check_exit "infeasible full budget" 2 r;
  Helpers.check_true "stderr carries the projection"
    (Test_metrics.contains ~needle:"projected simulations" err);
  Helpers.check_true "stderr carries the budget"
    (Test_metrics.contains ~needle:"budget of 1 " err);
  check_no_internal_error r

let test_bad_full_budget () =
  let r =
    run_conex
      [ "strategies"; "-w"; "mixed"; "--scale"; "1500"; "--full-budget"; "0" ]
  in
  check_exit "non-positive full budget" 2 r;
  check_no_internal_error r

(* -- check: exit-code contract of the correctness harness --------------- *)

let test_check_suite_ok () =
  let ((_, out, _) as r) =
    run_conex [ "check"; "--suite"; "stats"; "--count"; "20" ]
  in
  check_exit "check stats" 0 r;
  Helpers.check_true "prints the ok summary line"
    (Test_metrics.contains ~needle:"ok   stats" out)

let test_check_counterexample () =
  let ((_, out, _) as r) =
    run_conex [ "check"; "--suite"; "selftest"; "--count"; "10" ]
  in
  check_exit "check selftest (intentionally broken oracle)" 1 r;
  Helpers.check_true "prints a reproducible seed"
    (Test_metrics.contains ~needle:"CONEX_CHECK_SEED=" out);
  Helpers.check_true "reports the shrunk size"
    (Test_metrics.contains ~needle:"CONEX_CHECK_SIZE=2" out);
  check_no_internal_error r

let test_check_unknown_suite () =
  let ((_, _, err) as r) = run_conex [ "check"; "--suite"; "nosuch" ] in
  check_exit "unknown suite" 2 r;
  Helpers.check_true "stderr names the suite"
    (Test_metrics.contains ~needle:"nosuch" err);
  check_no_internal_error r

let test_check_bad_count () =
  let r = run_conex [ "check"; "--suite"; "stats"; "--count"; "0" ] in
  check_exit "non-positive count" 2 r;
  check_no_internal_error r

let test_check_list () =
  let ((_, out, _) as r) = run_conex [ "check"; "--list" ] in
  check_exit "check --list" 0 r;
  List.iter
    (fun needle ->
      Helpers.check_true
        (Printf.sprintf "lists the %s suite" needle)
        (Test_metrics.contains ~needle out))
    [ "pareto"; "sim"; "explore" ]

(* -- live telemetry and the run ledger ----------------------------------- *)

let slurp_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_status_out_and_status_cmd () =
  let path = Filename.temp_file "conex_status" ".json" in
  let r = run_conex ([ "explore"; "-w"; "mixed"; "--status-out"; path ] @ fast) in
  check_exit "explore --status-out" 0 r;
  (* the final snapshot records the completed run *)
  let ((_, out, _) as r2) = run_conex [ "status"; path ] in
  check_exit "status renders the file" 0 r2;
  List.iter
    (fun needle ->
      Helpers.check_true
        (Printf.sprintf "status mentions %s" needle)
        (Test_metrics.contains ~needle out))
    [ "done"; "shards"; "evals" ];
  let ((_, out, _) as r3) = run_conex [ "status"; path; "--json" ] in
  check_exit "status --json" 0 r3;
  Test_metrics.check_json "status --json document" out;
  (match Mx_util.Snapshot.of_json out with
  | Ok s ->
    Helpers.check_true "final snapshot shows progress"
      (s.Mx_util.Snapshot.progress.Mx_util.Snapshot.evals_committed > 0)
  | Error m -> Alcotest.failf "status --json unparseable: %s" m);
  Sys.remove path

let test_status_missing_file () =
  let r = run_conex [ "status"; "/nonexistent/conex-status.json" ] in
  check_exit "missing status file is an I/O error" 1 r;
  check_no_internal_error r

let test_bad_status_interval () =
  List.iter
    (fun flag ->
      let r =
        run_conex
          ([ "explore"; "-w"; "mixed"; "--status-out"; "/dev/null"; flag; "0" ]
          @ fast)
      in
      check_exit (flag ^ "=0 is a usage error") 2 r;
      check_no_internal_error r)
    [ "--status-interval"; "--stall-after" ]

let with_run_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "conex_runs_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun n -> try Sys.remove (Filename.concat dir n) with _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with _ -> ()
      end)
    (fun () -> f dir)

let test_run_dir_and_runs () =
  with_run_dir (fun dir ->
      let explore () =
        run_conex ([ "explore"; "-w"; "mixed"; "--run-dir"; dir ] @ fast)
      in
      let ((_, out, _) as r1) = explore () in
      check_exit "first --run-dir explore" 0 r1;
      Helpers.check_true "announces the manifest"
        (Test_metrics.contains ~needle:"run manifest written to" out);
      check_exit "second --run-dir explore" 0 (explore ());
      let manifests =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.map (Filename.concat dir)
      in
      Helpers.check_int "two manifests recorded" 2 (List.length manifests);
      let a, b =
        match manifests with [ a; b ] -> (a, b) | _ -> assert false
      in
      (* runs list renders both *)
      let ((_, out, _) as rl) = run_conex [ "runs"; "list"; dir ] in
      check_exit "runs list" 0 rl;
      List.iter
        (fun needle ->
          Helpers.check_true
            (Printf.sprintf "listing mentions %s" needle)
            (Test_metrics.contains ~needle out))
        [ "explore"; "mixed"; Filename.basename a; Filename.basename b ];
      (* identical seeded runs: no regression.  Wall time on sub-second
         runs jitters, so give it headroom; hits and front must match
         exactly under the default thresholds. *)
      check_exit "diff of an identical pair" 0
        (run_conex [ "runs"; "diff"; a; b; "--max-wall-ratio"; "1000" ]);
      (* inject a wall-time regression into a copy of B by replacing
         the "wall_seconds" value, as CI's sed does *)
      let slow = Filename.concat dir "run-injected-slow.json" in
      let doc =
        Str.global_replace
          (Str.regexp {|"wall_seconds": [0-9.eE+-]*|})
          {|"wall_seconds": 9999.0|} (slurp_file b)
      in
      Helpers.check_true "the wall time was replaced"
        (Test_metrics.contains ~needle:{|"wall_seconds": 9999.0|} doc);
      Out_channel.with_open_text slow (fun oc ->
          Out_channel.output_string oc doc);
      let ((_, out, _) as rd) = run_conex [ "runs"; "diff"; a; slow ] in
      check_exit "injected wall-time regression exits 1" 1 rd;
      Helpers.check_true "verdict says REGRESSION"
        (Test_metrics.contains ~needle:"REGRESSION" out);
      check_no_internal_error rd;
      (* thresholds are validated *)
      let rt =
        run_conex [ "runs"; "diff"; a; b; "--max-wall-ratio"; "0" ]
      in
      check_exit "non-positive threshold exits 2" 2 rt;
      check_no_internal_error rt)

let test_runs_list_empty () =
  with_run_dir (fun dir ->
      let ((_, out, _) as r) = run_conex [ "runs"; "list"; dir ] in
      check_exit "runs list on an absent dir" 0 r;
      Helpers.check_true "says the ledger is empty"
        (Test_metrics.contains ~needle:"no run manifests" out))

let test_metrics_text_cache_line () =
  let ((_, out, _) as r) =
    run_conex ([ "explore"; "-w"; "mixed"; "--metrics"; "text" ] @ fast)
  in
  check_exit "explore --metrics text" 0 r;
  Helpers.check_true "derived cache summary present"
    (Test_metrics.contains ~needle:"eval.cache:" out);
  Helpers.check_true "hit rate rendered"
    (Test_metrics.contains ~needle:"hit rate" out)

let test_explain_truncated_tail () =
  let path = Filename.temp_file "conex_events" ".jsonl" in
  let r = run_conex ([ "explore"; "-w"; "mixed"; "--events-out"; path ] @ fast) in
  check_exit "explore --events-out" 0 r;
  (* simulate a run killed mid-write *)
  let oc = open_out_gen [ Open_append; Open_text ] 0o644 path in
  output_string oc "{\"stage\": \"phase2\", \"se";
  close_out oc;
  let ((_, out, _) as r2) = run_conex [ "explain"; "--events"; path ] in
  check_exit "explain tolerates the damaged tail" 0 r2;
  Helpers.check_true "summary flags the truncation"
    (Test_metrics.contains ~needle:"truncated tail ignored" out);
  Helpers.check_true "funnel still reconstructed"
    (Test_metrics.contains ~needle:"Phase I" out);
  Sys.remove path

(* -- conex serve: the JSONL request/response protocol -------------------- *)

let serve_explore ~id =
  Printf.sprintf
    "{\"id\": %d, \"op\": \"explore\", \"workload\": \"mixed\", \"scale\": \
     1500, \"seed\": 7, \"reduced\": true}"
    id

(* everything after the per-request envelope (id, dedup flag): the
   deterministic body that duplicate requests must repeat byte for byte *)
let body_of line =
  let needle = "\"status\"" in
  let nh = String.length line and nn = String.length needle in
  let rec go i =
    if i + nn > nh then Alcotest.failf "response carries no status: %s" line
    else if String.sub line i nn = needle then String.sub line i (nh - i)
    else go (i + 1)
  in
  go 0

let test_serve_protocol () =
  let input =
    String.concat "\n"
      [
        "{\"id\": 1, \"op\": \"ping\"}";
        serve_explore ~id:2;
        "";
        serve_explore ~id:3;
        "this is not json";
        "{\"id\": 4, \"op\": \"explore\", \"workload\": \"nosuch\"}";
        "{\"id\": 5, \"op\": \"frobnicate\"}";
        "{\"id\": 6, \"op\": \"stats\"}";
        "{\"id\": 7, \"op\": \"shutdown\"}";
        serve_explore ~id:99 (* after shutdown: must never be answered *);
      ]
    ^ "\n"
  in
  let ((_, out, _) as r) =
    run_conex_in ~input [ "serve"; "--jobs"; "1" ]
  in
  check_exit "serve session" 0 r;
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "")
  in
  Helpers.check_int "one response per request, none after shutdown" 8
    (List.length lines);
  List.iter (Test_metrics.check_json "serve response line") lines;
  let nth i = List.nth lines i in
  Helpers.check_true "ping pongs"
    (Test_metrics.contains ~needle:"\"op\": \"ping\"" (nth 0));
  Helpers.check_true "first explore is computed"
    (Test_metrics.contains ~needle:"\"dedup\": false" (nth 1));
  Helpers.check_true "duplicate explore is served from the response cache"
    (Test_metrics.contains ~needle:"\"dedup\": true" (nth 2));
  Helpers.check_true "duplicate response body is byte-identical"
    (body_of (nth 1) = body_of (nth 2));
  Helpers.check_true "explore response carries the front"
    (Test_metrics.contains ~needle:"\"front\": [" (nth 1));
  Helpers.check_true "malformed line answers an error, id null"
    (Test_metrics.contains ~needle:"\"id\": null" (nth 3)
    && Test_metrics.contains ~needle:"\"status\": \"error\"" (nth 3));
  Helpers.check_true "unknown workload is a per-request error"
    (Test_metrics.contains ~needle:"\"status\": \"error\"" (nth 4)
    && Test_metrics.contains ~needle:"nosuch" (nth 4));
  Helpers.check_true "unknown op is a per-request error"
    (Test_metrics.contains ~needle:"frobnicate" (nth 5));
  Helpers.check_true "stats reports the session counters"
    (Test_metrics.contains ~needle:"\"serve\": {\"requests\": 7" (nth 6)
    && Test_metrics.contains ~needle:"\"errors\": 3" (nth 6)
    && Test_metrics.contains ~needle:"\"dedup\": 1" (nth 6));
  Helpers.check_true "no disk tier means persist: null"
    (Test_metrics.contains ~needle:"\"persist\": null" (nth 6));
  Helpers.check_true "shutdown is acknowledged"
    (Test_metrics.contains ~needle:"\"op\": \"shutdown\"" (nth 7))

(* a present explore field of the wrong type is a per-request error
   that names the field; an absent one takes its default *)
let test_serve_field_types () =
  let input =
    String.concat "\n"
      [
        {|{"id": 1, "op": "explore", "workload": "mixed", "scale": "900"}|};
        {|{"id": 2, "op": "explore", "workload": "mixed", "scale": 900.5, "reduced": "no"}|};
        {|{"id": 3, "op": "explore", "workload": "mixed", "scale": 900, "reduced": "no"}|};
        {|{"id": 4, "op": "explore", "workload": 7}|};
        {|{"id": 5, "op": "explore", "workload": "mixed", "seed": null}|};
        {|{"id": 6, "op": "explore", "workload": "mixed", "scale": 900}|};
      ]
    ^ "\n"
  in
  let ((_, out, _) as r) = run_conex_in ~input [ "serve"; "--jobs"; "1" ] in
  check_exit "serve session" 0 r;
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "")
  in
  Helpers.check_int "one response per request" 6 (List.length lines);
  List.iteri
    (fun i field ->
      let line = List.nth lines i in
      Helpers.check_true
        (Printf.sprintf "request %d is an error naming %s" (i + 1) field)
        (Test_metrics.contains ~needle:"\"status\": \"error\"" line
        && Test_metrics.contains
             ~needle:(Printf.sprintf "field \\\"%s\\\"" field)
             line))
    [ "scale"; "scale"; "reduced"; "workload"; "seed" ];
  Helpers.check_true "absent fields take their defaults"
    (Test_metrics.contains
       ~needle:"\"scale\": 900, \"seed\": 7, \"reduced\": true"
       (List.nth lines 5))

(* ids are echoed exactly: numbers are printed with as many digits as
   reading them back needs *)
let test_serve_exact_ids () =
  let input =
    {|{"id": 1234567, "op": "ping"}
{"id": 0.1234567, "op": "ping"}
|}
  in
  let ((_, out, _) as r) = run_conex_in ~input [ "serve" ] in
  check_exit "serve session" 0 r;
  Helpers.check_true "both ids come back verbatim"
    (String.split_on_char '\n' (String.trim out)
    = [
        {|{"id": 1234567, "status": "ok", "op": "ping"}|};
        {|{"id": 0.1234567, "status": "ok", "op": "ping"}|};
      ])

let test_serve_unicode_id () =
  (* the request spells U+00E9 as an escape; the reply carries its bytes *)
  let input = {|{"id": "caf\u00e9", "op": "ping"}|} ^ "\n" in
  let ((_, out, _) as r) = run_conex_in ~input [ "serve" ] in
  check_exit "serve session" 0 r;
  Helpers.check_true "the id comes back decoded"
    (String.trim out = {|{"id": "caf|} ^ "\xc3\xa9" ^ {|", "status": "ok", "op": "ping"}|})

let test_serve_eof_shutdown () =
  (* a closed stdin ends the session as cleanly as an explicit shutdown *)
  let r = run_conex_in ~input:"{\"id\": 1, \"op\": \"ping\"}\n" [ "serve" ] in
  check_exit "serve exits 0 on EOF" 0 r

let test_serve_bad_shards () =
  let r = run_conex_in ~input:"" [ "serve"; "--shards"; "0" ] in
  check_exit "serve rejects non-positive shards" 2 r;
  check_no_internal_error r

let test_serve_cache_dir_warm_start () =
  with_run_dir (fun dir ->
      let session () =
        run_conex_in
          ~input:(serve_explore ~id:1 ^ "\n{\"id\": 2, \"op\": \"stats\"}\n")
          [ "serve"; "--jobs"; "1"; "--cache-dir"; dir ]
      in
      let ((_, out1, err1) as r1) = session () in
      check_exit "cold serve session" 0 r1;
      let ((_, out2, err2) as r2) = session () in
      check_exit "warm serve session" 0 r2;
      let explore_line out = List.nth (String.split_on_char '\n' out) 0 in
      Helpers.check_true "warm session answers byte-identically"
        (explore_line out1 = explore_line out2);
      (* the graceful-shutdown summary goes to stderr — stdout is the
         protocol stream *)
      Helpers.check_true "cold session wrote the store"
        (Test_metrics.contains ~needle:"persistent cache: 0 disk hits" err1);
      Helpers.check_true "warm session is served from the store"
        (Test_metrics.contains ~needle:"disk hits" err2
        && (not (Test_metrics.contains ~needle:" 0 disk hits" err2))
        && Test_metrics.contains ~needle:" 0 writes" err2);
      let stats_line = List.nth (String.split_on_char '\n' out2) 1 in
      Helpers.check_true "warm stats shows resident persist entries"
        (Test_metrics.contains ~needle:"\"persist\": {\"entries\":" stats_line))

let with_sigpipe behaviour f =
  let old = Sys.signal Sys.sigpipe behaviour in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old) f

(* Start conex with SIGPIPE at its default action, as a shell would
   (the test runner may ignore it, and an ignored signal stays ignored
   across exec), so the server's own handling is what is tested. *)
let spawn_conex bin args ~stdin ~stdout ~stderr =
  with_sigpipe Sys.Signal_default (fun () ->
      Unix.create_process bin (Array.of_list (bin :: args)) stdin stdout
        stderr)

(* The exit status of [pid], killing it if it has not exited within
   [secs] seconds. *)
let await ?(secs = 60.0) pid =
  let deadline = Unix.gettimeofday () +. secs in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      go ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.failf "conex did not exit within %.0f s" secs
    | _, status -> status
  in
  go ()

let exit_status_str = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s when s = Sys.sigpipe -> "killed by SIGPIPE"
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let slurp_file path = In_channel.with_open_bin path In_channel.input_all

(* [f] drives a conex server listening on a Unix socket at [path] in
   a fresh directory: [connect ~tries ()] opens a client connection,
   retrying [tries] times while the socket is not there or not yet
   listening; [send] writes one request line; [exited ()] awaits the
   server's exit status; [stderr ()] reads what it printed there.  The
   server is killed if [f] leaves it running. *)
let with_socket_server ?(args = []) f =
  match conex_bin with
  | None -> Alcotest.skip ()
  | Some bin ->
    with_run_dir (fun sock_dir ->
        Unix.mkdir sock_dir 0o700;
        let path = Filename.concat sock_dir "serve.sock" in
        let err = Filename.concat sock_dir "stderr.txt" in
        let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
        let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
        let pid =
          Fun.protect
            ~finally:(fun () ->
              Unix.close null;
              Unix.close errfd)
            (fun () ->
              spawn_conex bin
                ([ "serve"; "--socket"; path; "--jobs"; "1" ] @ args)
                ~stdin:null ~stdout:null ~stderr:errfd)
        in
        let status = ref None in
        Fun.protect
          ~finally:(fun () ->
            if !status = None then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] pid)
            end)
          (fun () ->
            (* a server that dies mid-test must fail the test, not kill
               the runner on a client write *)
            with_sigpipe Sys.Signal_ignore @@ fun () ->
            (* the socket file appears at bind, before listen *)
            let rec connect ?(tries = 0) () =
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
              match Unix.connect fd (Unix.ADDR_UNIX path) with
              | () -> fd
              | exception Unix.Unix_error
                            ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
                when tries > 0 ->
                Unix.close fd;
                Unix.sleepf 0.05;
                connect ~tries:(tries - 1) ()
            in
            let send fd line =
              let line = line ^ "\n" in
              ignore (Unix.write_substring fd line 0 (String.length line))
            in
            let exited () =
              let st = await pid in
              status := Some st;
              st
            in
            f ~path ~connect ~send ~exited ~stderr:(fun () -> slurp_file err)))

(* send [requests] on a fresh connection and read one reply each *)
let exchange ~connect ~send requests =
  let fd = connect () in
  List.iter (send fd) requests;
  let ic = Unix.in_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> List.map (fun _ -> input_line ic) requests)

let test_serve_vanished_client () =
  (* client A sends explore and disconnects before the reply; the
     server must answer client B's ping, exit 0 on its shutdown and
     still close the store *)
  with_run_dir @@ fun cache_dir ->
  with_socket_server ~args:[ "--cache-dir"; cache_dir ]
  @@ fun ~path:_ ~connect ~send ~exited ~stderr ->
  let a = connect ~tries:600 () in
  send a (serve_explore ~id:1);
  Unix.close a;
  let ping, shutdown =
    match
      exchange ~connect ~send
        [ "{\"id\": 2, \"op\": \"ping\"}"; "{\"id\": 3, \"op\": \"shutdown\"}" ]
    with
    | [ ping; shutdown ] -> (ping, shutdown)
    | _ -> assert false
    | exception ((Unix.Unix_error _ | Sys_error _ | End_of_file) as e) ->
      Alcotest.failf "client B: %s; serve %s (stderr: %s)"
        (Printexc.to_string e)
        (exit_status_str (exited ()))
        (stderr ())
  in
  Helpers.check_true "client B's ping is answered"
    (Test_metrics.contains ~needle:"\"op\": \"ping\"" ping);
  Helpers.check_true "client B's shutdown is acknowledged"
    (Test_metrics.contains ~needle:"\"op\": \"shutdown\"" shutdown);
  let st = exited () in
  if st <> Unix.WEXITED 0 then
    Alcotest.failf "serve: %s (stderr: %s)" (exit_status_str st) (stderr ());
  Helpers.check_true "the store is closed on shutdown"
    (Test_metrics.contains ~needle:"persistent cache:" (stderr ()))

let test_serve_unread_shutdown () =
  (* the client sends shutdown and leaves before the reply: the server's
     write fails, and it must still shut down and remove its socket *)
  with_socket_server @@ fun ~path ~connect ~send ~exited ~stderr ->
  let fd = connect ~tries:600 () in
  send fd "{\"id\": 1, \"op\": \"shutdown\"}";
  Unix.close fd;
  let st = exited () in
  if st <> Unix.WEXITED 0 then
    Alcotest.failf "serve: %s (stderr: %s)" (exit_status_str st) (stderr ());
  Helpers.check_true "the socket is removed" (not (Sys.file_exists path))

(* [conex serve --socket path], which must exit on its own *)
let serve_status path =
  match conex_bin with
  | None -> Alcotest.skip ()
  | Some bin ->
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        await ~secs:20.0
          (spawn_conex bin [ "serve"; "--socket"; path ] ~stdin:null
             ~stdout:null ~stderr:null))

let test_serve_refuses_file () =
  (* a file at the socket path is not a stale socket: it must survive *)
  with_run_dir @@ fun dir ->
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "victim.txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "keep me\n");
  let st = serve_status path in
  Alcotest.(check string)
    "serve on a regular file" "exit 1" (exit_status_str st);
  Alcotest.(check string) "the file survives" "keep me\n" (slurp_file path)

let test_serve_refuses_live_socket () =
  (* a second server on a live server's socket exits 1 and leaves it
     answering *)
  with_socket_server @@ fun ~path ~connect ~send ~exited ~stderr ->
  let ping = "{\"id\": 1, \"op\": \"ping\"}" in
  ignore (exchange ~connect:(connect ~tries:600) ~send [ ping ]);
  Alcotest.(check string) "a second server on the live socket" "exit 1"
    (exit_status_str (serve_status path));
  let shutdown = "{\"id\": 2, \"op\": \"shutdown\"}" in
  (match exchange ~connect ~send [ ping; shutdown ] with
  | [ reply; _ ] ->
    Helpers.check_true "the first server still answers ping"
      (Test_metrics.contains ~needle:"\"op\": \"ping\"" reply)
  | _ -> assert false
  | exception ((Unix.Unix_error _ | Sys_error _ | End_of_file) as e) ->
    Alcotest.failf "after the second server: %s; serve %s (stderr: %s)"
      (Printexc.to_string e)
      (exit_status_str (exited ()))
      (stderr ()));
  let st = exited () in
  if st <> Unix.WEXITED 0 then
    Alcotest.failf "serve: %s (stderr: %s)" (exit_status_str st) (stderr ())

let test_serve_closed_stdout () =
  (* stdout is a pipe with no reader: the first reply fails, and the
     session ends as at end of input, closing the store *)
  match conex_bin with
  | None -> Alcotest.skip ()
  | Some bin ->
    with_run_dir (fun dir ->
        with_run_dir (fun cache_dir ->
            Unix.mkdir dir 0o700;
            let inp = Filename.concat dir "in.jsonl"
            and err = Filename.concat dir "stderr.txt" in
            Out_channel.with_open_bin inp (fun oc ->
                output_string oc "{\"id\": 1, \"op\": \"ping\"}\n");
            let infd = Unix.openfile inp [ Unix.O_RDONLY ] 0
            and errfd =
              Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600
            in
            let r, w = Unix.pipe () in
            Unix.close r;
            let pid =
              Fun.protect
                ~finally:(fun () -> List.iter Unix.close [ infd; errfd; w ])
                (fun () ->
                  spawn_conex bin [ "serve"; "--cache-dir"; cache_dir ]
                    ~stdin:infd ~stdout:w ~stderr:errfd)
            in
            let st = await pid in
            if st <> Unix.WEXITED 0 then
              Alcotest.failf "serve: %s (stderr: %s)" (exit_status_str st)
                (slurp_file err);
            Helpers.check_true "the store is closed"
              (Test_metrics.contains ~needle:"persistent cache:"
                 (slurp_file err))))

let suite =
  ( "cli",
    [
      Alcotest.test_case "explore exits 0" `Slow test_explore_ok;
      Alcotest.test_case "unknown workload exits 2" `Quick
        test_unknown_workload;
      Alcotest.test_case "bad scenario exits 2 (eagerly)" `Quick
        test_bad_scenario;
      Alcotest.test_case "bad scenario kind exits 2" `Quick
        test_bad_scenario_kind;
      Alcotest.test_case "unknown policy exits 2" `Quick test_bad_policy;
      Alcotest.test_case "--policies explore exits 0" `Slow
        test_policies_explore_ok;
      Alcotest.test_case "missing trace exits 1" `Quick
        test_missing_trace_file;
      Alcotest.test_case "select missing csv exits 1" `Quick
        test_select_missing_csv;
      Alcotest.test_case "--metrics json" `Slow test_metrics_json_on_stdout;
      Alcotest.test_case "--trace-out" `Slow test_trace_out_file;
      Alcotest.test_case "--trace-out unwritable" `Quick
        test_trace_out_unwritable;
      Alcotest.test_case "strategies --trace-out unwritable" `Quick
        test_strategies_trace_out_unwritable;
      Alcotest.test_case "--events-out unwritable" `Quick
        test_events_out_unwritable;
      Alcotest.test_case "--events-out + explain" `Slow test_events_out_file;
      Alcotest.test_case "explain missing file" `Quick
        test_explain_missing_file;
      Alcotest.test_case "--chrome-out" `Slow test_chrome_out_file;
      Alcotest.test_case "strategies --metrics" `Slow test_strategies_metrics;
      Alcotest.test_case "--shards + --front-out" `Slow
        test_explore_shards_front_out;
      Alcotest.test_case "bad --shards exits 2" `Quick test_bad_shards;
      Alcotest.test_case "infeasible --full-budget exits 2" `Slow
        test_strategies_full_budget_infeasible;
      Alcotest.test_case "bad --full-budget exits 2" `Quick
        test_bad_full_budget;
      Alcotest.test_case "check suite exits 0" `Quick test_check_suite_ok;
      Alcotest.test_case "check counterexample exits 1" `Quick
        test_check_counterexample;
      Alcotest.test_case "check unknown suite exits 2" `Quick
        test_check_unknown_suite;
      Alcotest.test_case "check bad count exits 2" `Quick test_check_bad_count;
      Alcotest.test_case "check --list exits 0" `Quick test_check_list;
      Alcotest.test_case "--status-out + status" `Slow
        test_status_out_and_status_cmd;
      Alcotest.test_case "status missing file exits 1" `Quick
        test_status_missing_file;
      Alcotest.test_case "bad status cadence exits 2" `Quick
        test_bad_status_interval;
      Alcotest.test_case "--run-dir + runs list/diff" `Slow
        test_run_dir_and_runs;
      Alcotest.test_case "runs list empty ledger" `Quick test_runs_list_empty;
      Alcotest.test_case "--metrics text cache summary" `Slow
        test_metrics_text_cache_line;
      Alcotest.test_case "explain truncated tail" `Slow
        test_explain_truncated_tail;
      Alcotest.test_case "serve protocol end to end" `Slow
        test_serve_protocol;
      Alcotest.test_case "serve exits 0 on EOF" `Quick test_serve_eof_shutdown;
      Alcotest.test_case "serve rejects ill-typed explore fields" `Quick
        test_serve_field_types;
      Alcotest.test_case "serve bad --shards exits 2" `Quick
        test_serve_bad_shards;
      Alcotest.test_case "serve --cache-dir warm start" `Slow
        test_serve_cache_dir_warm_start;
      Alcotest.test_case "serve survives a vanished client" `Slow
        test_serve_vanished_client;
      Alcotest.test_case "serve stops on an unread shutdown" `Quick
        test_serve_unread_shutdown;
      Alcotest.test_case "serve refuses a non-socket path" `Quick
        test_serve_refuses_file;
      Alcotest.test_case "serve refuses a live socket" `Quick
        test_serve_refuses_live_socket;
      Alcotest.test_case "serve ends on a closed stdout" `Quick
        test_serve_closed_stdout;
      Alcotest.test_case "negative-address trace exits 1" `Quick
        test_negative_address_trace;
      Alcotest.test_case "serve echoes numeric ids exactly" `Quick
        test_serve_exact_ids;
      Alcotest.test_case "serve decodes unicode escapes in ids" `Quick
        test_serve_unicode_id;
    ] )
