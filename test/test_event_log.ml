(* Mx_util.Event_log: the bounded provenance stream, its exporters, and
   the end-to-end funnel contract — every Phase I design reaches a
   terminal verdict, pruning names a dominating competitor on the
   front, and the canonical (schedule-independent) dump is
   byte-identical between serial and parallel runs. *)

module Ev = Mx_util.Event_log
module Explore = Conex.Explore
module Design = Conex.Design

(* Run [f] with the ambient event log enabled and clean, then disable
   and clear it again; [f] must read out what it needs before
   returning. *)
let with_events f =
  let log = Ev.global in
  Ev.reset log;
  Ev.set_enabled log true;
  Fun.protect
    ~finally:(fun () ->
      Ev.set_enabled log false;
      Ev.reset log)
    f

let attr_str (e : Ev.event) k =
  match List.assoc_opt k e.Ev.attrs with Some (Ev.Str s) -> Some s | _ -> None

(* -- unit: the ring and its invariants ------------------------------------ *)

let test_disabled_is_noop () =
  let t = Ev.create () in
  Helpers.check_true "disabled by default" (not (Ev.is_on t));
  Ev.emit t ~stage:"s" "x" [];
  Helpers.check_int "nothing recorded" 0 (Ev.length t);
  Helpers.check_true "no events" (Ev.events t = [])

let test_per_stage_sequences () =
  let t = Ev.create ~enabled:true () in
  Ev.emit t ~stage:"a" "x" [];
  Ev.emit t ~stage:"a" "y" [];
  Ev.emit t ~stage:"b" "z" [];
  Ev.emit t ~stage:"a" "w" [];
  let seqs stage =
    Ev.events t
    |> List.filter (fun (e : Ev.event) -> e.Ev.stage = stage)
    |> List.map (fun (e : Ev.event) -> e.Ev.seq)
  in
  Helpers.check_true "stage a counts 0,1,2" (seqs "a" = [ 0; 1; 2 ]);
  Helpers.check_true "stage b counts independently" (seqs "b" = [ 0 ]);
  (* an explicit seq neither reads nor advances the stage counter *)
  Ev.emit t ~stage:"a" ~seq:99 "explicit" [];
  Ev.emit t ~stage:"a" "v" [];
  Helpers.check_true "explicit seq passes through, auto continues"
    (seqs "a" = [ 0; 1; 2; 99; 3 ])

let test_ring_bound () =
  let t = Ev.create ~enabled:true ~capacity:4 () in
  for i = 0 to 5 do
    Ev.emit t ~stage:"s" (Printf.sprintf "e%d" i) []
  done;
  Helpers.check_int "length clamped to capacity" 4 (Ev.length t);
  Helpers.check_int "two oldest dropped" 2 (Ev.dropped t);
  Helpers.check_true "latest events survive"
    (List.map (fun (e : Ev.event) -> e.Ev.name) (Ev.events t)
    = [ "e2"; "e3"; "e4"; "e5" ]);
  Ev.reset t;
  Helpers.check_int "reset clears the drop count" 0 (Ev.dropped t);
  Helpers.check_int "reset clears the events" 0 (Ev.length t)

let mk ?(stage = "s") ?(seq = 0) ?(attrs = []) name =
  { Ev.stage; seq; name; attrs; t_ms = 0.0 }

let test_schedule_dependent () =
  Helpers.check_true "eval.cache.provenance is exempt"
    (Ev.schedule_dependent (mk "eval.cache.provenance"));
  Helpers.check_true "sched. segment is exempt"
    (Ev.schedule_dependent (mk "task_pool.sched.steal"));
  Helpers.check_true "design.kept is canonical"
    (not (Ev.schedule_dependent (mk "design.kept")));
  Helpers.check_true "\"cache\" must be a whole dotted segment"
    (not (Ev.schedule_dependent (mk "cached.not_filtered")))

let test_canonical_sort () =
  let evs =
    [
      mk ~stage:"b" ~seq:0 "x"; mk ~stage:"a" ~seq:1 "y";
      mk ~stage:"a" ~seq:0 "z"; mk ~stage:"a" ~seq:0 "a";
    ]
  in
  Helpers.check_true "sorted by (stage, seq, name)"
    (List.map
       (fun (e : Ev.event) -> (e.Ev.stage, e.Ev.seq, e.Ev.name))
       (Ev.canonical_sort evs)
    = [ ("a", 0, "a"); ("a", 0, "z"); ("a", 1, "y"); ("b", 0, "x") ])

let test_jsonl_roundtrip () =
  let t = Ev.create ~enabled:true () in
  Ev.emit t ~stage:"phase1" "design.created"
    [
      ("design", Ev.Str "weird \"key\" with,commas\nand \\ slashes");
      ("id", Ev.Str "cache-only | {a, b} on ahb32");
      ("n", Ev.Int 42);
      ("bw", Ev.Float 1.5);
      ("offchip", Ev.Bool false);
    ];
  Ev.emit t ~stage:"phase1" "design.kept" [ ("design", Ev.Str "k") ];
  let lines =
    Ev.to_jsonl t |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Helpers.check_int "one line per event" 2 (List.length lines);
  List.iter (fun l -> Test_metrics.check_json "event line" l) lines;
  let parsed =
    List.map
      (fun l ->
        match Ev.event_of_line l with
        | Ok e -> e
        | Error m -> Alcotest.failf "parse failed: %s in %s" m l)
      lines
  in
  List.iter2
    (fun (a : Ev.event) (b : Ev.event) ->
      Helpers.check_true "stage survives" (a.Ev.stage = b.Ev.stage);
      Helpers.check_int "seq survives" a.Ev.seq b.Ev.seq;
      Helpers.check_true "name survives" (a.Ev.name = b.Ev.name);
      Helpers.check_true "attrs survive" (a.Ev.attrs = b.Ev.attrs))
    (Ev.events t) parsed;
  match Ev.event_of_line "{\"not\": \"an event\"}" with
  | Ok _ -> Alcotest.fail "parsed a non-event"
  | Error _ -> ()

(* -- unit: loading event files with damaged tails ------------------------- *)

let with_jsonl_file content f =
  let path = Filename.temp_file "conex_events" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc content);
      f path)

let valid_lines () =
  let t = Ev.create ~enabled:true () in
  Ev.emit t ~stage:"phase1" "design.created" [ ("design", Ev.Str "a") ];
  Ev.emit t ~stage:"phase1" "design.kept" [ ("design", Ev.Str "a") ];
  Ev.emit t ~stage:"phase2" "design.evaluated" [ ("design", Ev.Str "a") ];
  Ev.to_jsonl t

let test_load_clean_file () =
  with_jsonl_file (valid_lines ()) (fun path ->
      match Ev.load_jsonl ~path with
      | Error m -> Alcotest.failf "clean file rejected: %s" m
      | Ok { Ev.events; truncated } ->
        Helpers.check_int "all events loaded" 3 (List.length events);
        Helpers.check_true "not truncated" (not truncated))

let test_load_truncated_tail () =
  (* a run killed mid-write leaves a partial final line *)
  let damaged = valid_lines () ^ "{\"stage\": \"phase2\", \"se" in
  with_jsonl_file damaged (fun path ->
      match Ev.load_jsonl ~path with
      | Error m -> Alcotest.failf "truncated tail rejected: %s" m
      | Ok { Ev.events; truncated } ->
        Helpers.check_int "complete events kept" 3 (List.length events);
        Helpers.check_true "flagged truncated" truncated)

let test_load_corrupt_middle () =
  let lines = String.split_on_char '\n' (valid_lines ()) in
  let damaged =
    match lines with
    | first :: rest -> String.concat "\n" ((first ^ "garbage") :: rest)
    | [] -> assert false
  in
  with_jsonl_file damaged (fun path ->
      match Ev.load_jsonl ~path with
      | Ok _ -> Alcotest.fail "corruption before the tail must be an error"
      | Error m ->
        Helpers.check_true "error names the line"
          (Test_metrics.contains ~needle:"line 1" m))

let test_canonical_dump_strips_time () =
  let evs_at t_ms =
    [
      { (mk ~stage:"a" ~seq:0 "x") with Ev.t_ms };
      { (mk ~stage:"a" ~seq:1 "eval.cache.provenance") with Ev.t_ms };
    ]
  in
  Helpers.check_true "same decisions at different times dump identically"
    (Ev.canonical_dump (evs_at 1.0) = Ev.canonical_dump (evs_at 99.0));
  Helpers.check_true "schedule-dependent events are stripped"
    (not
       (Test_metrics.contains ~needle:"provenance"
          (Ev.canonical_dump (evs_at 1.0))))

let test_chrome_trace () =
  let m = Mx_util.Metrics.create ~enabled:true () in
  Mx_util.Metrics.with_span m "outer" (fun () ->
      Mx_util.Metrics.with_span m "inner" ignore);
  let evs = [ mk ~attrs:[ ("design", Ev.Str "k"); ("n", Ev.Int 1) ] "e" ] in
  let doc =
    Ev.to_chrome_trace ~snapshot:(Mx_util.Metrics.snapshot m) evs
  in
  Test_metrics.check_json "chrome trace document" doc;
  List.iter
    (fun needle ->
      Helpers.check_true
        (Printf.sprintf "trace mentions %s" needle)
        (Test_metrics.contains ~needle doc))
    [
      "\"traceEvents\""; "\"ph\": \"X\""; "\"ph\": \"i\""; "outer"; "inner";
      "displayTimeUnit";
    ]

(* -- integration: the funnel contract ------------------------------------- *)

let small_config jobs =
  {
    Explore.reduced_config with
    Explore.apex =
      { Mx_apex.Explore.reduced_config with Mx_apex.Explore.max_selected = 3 };
    jobs;
  }

let explore_events jobs w =
  Mx_sim.Eval.clear_cache ();
  with_events (fun () ->
      let r = Explore.run ~config:(small_config jobs) w in
      (r, Ev.events Ev.global))

let test_terminal_verdicts () =
  let w = Helpers.mixed_workload ~scale:3000 () in
  let _, events = explore_events 1 w in
  Helpers.check_true "log is non-empty" (events <> []);
  let created =
    List.filter_map
      (fun (e : Ev.event) ->
        if e.Ev.name = "design.created" then attr_str e "design" else None)
      events
  in
  Helpers.check_true "designs were created" (created <> []);
  let terminal = Hashtbl.create 64 in
  List.iter
    (fun (e : Ev.event) ->
      match e.Ev.name with
      | "design.kept" | "design.thinned" | "design.pruned" | "design.selected"
        ->
        Option.iter (fun k -> Hashtbl.replace terminal k ()) (attr_str e "design")
      | _ -> ())
    events;
  List.iter
    (fun k ->
      if not (Hashtbl.mem terminal k) then
        Alcotest.failf "design %s has no terminal event" k)
    created;
  (* whoever killed a pruned design must itself exist in the log *)
  let created_set = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace created_set k ()) created;
  let pruned =
    List.filter (fun (e : Ev.event) -> e.Ev.name = "design.pruned") events
  in
  Helpers.check_true "something was pruned at this scale" (pruned <> []);
  List.iter
    (fun e ->
      match attr_str e "dominated_by" with
      | Some dom when dom <> "" ->
        Helpers.check_true "dominator was created too"
          (Hashtbl.mem created_set dom)
      | _ -> ())
    pruned;
  (* the cluster and assignment stages reported as well *)
  List.iter
    (fun name ->
      Helpers.check_true (name ^ " present")
        (List.exists (fun (e : Ev.event) -> e.Ev.name = name) events))
    [ "cluster.merge"; "assign.level"; "assign.kept"; "design.evaluated" ]

(* A pruned design of a run names a competitor that stayed on its
   architecture's front — kept or thinned — and dominates it.  The
   reference Phase I supplies every estimate's coordinates. *)
let test_pruned_names_front_member () =
  let w = Helpers.mixed_workload ~scale:3000 () in
  let config = small_config 1 in
  let r, events = explore_events 1 w in
  let designs =
    match Explore.phase1 config w r.Explore.apex_selected with
    | None -> Alcotest.fail "Phase I stopped without an interrupt"
    | Some per_arch -> List.concat per_arch
  in
  let by_key = Hashtbl.create 1024 and on_front = Hashtbl.create 64 in
  List.iter
    (fun d -> Hashtbl.replace by_key (Design.structural_key d) d)
    designs;
  List.iter
    (fun (e : Ev.event) ->
      if e.Ev.name = "design.kept" || e.Ev.name = "design.thinned" then
        Option.iter (fun k -> Hashtbl.replace on_front k ()) (attr_str e "design"))
    events;
  let pruned =
    List.filter (fun (e : Ev.event) -> e.Ev.name = "design.pruned") events
  in
  Helpers.check_true "something was pruned at this scale" (pruned <> []);
  let axes = [ Design.cost; Design.latency; Design.energy ] in
  List.iter
    (fun e ->
      let key = Option.get (attr_str e "design")
      and dom = Option.get (attr_str e "dominated_by") in
      if not (Hashtbl.mem on_front dom) then
        Alcotest.failf "%s is pruned by %s, which was not kept or thinned" key
          dom;
      if
        not
          (Mx_util.Pareto.dominates ~axes (Hashtbl.find by_key dom)
             (Hashtbl.find by_key key))
      then Alcotest.failf "%s does not dominate %s" dom key)
    pruned

let test_parity_serial_vs_parallel () =
  List.iter
    (fun scale ->
      let w = Helpers.mixed_workload ~scale () in
      let _, e1 = explore_events 1 w in
      let _, en = explore_events Helpers.test_jobs w in
      let d1 = Ev.canonical_dump e1 and dn = Ev.canonical_dump en in
      if d1 <> dn then
        Alcotest.failf
          "canonical event dump diverges between jobs=1 and jobs=%d at scale \
           %d (%d vs %d bytes)"
          Helpers.test_jobs scale (String.length d1) (String.length dn))
    [ 3000; 4200 ]

let test_strategy_events () =
  let w = Helpers.mixed_workload ~scale:3000 () in
  Mx_sim.Eval.clear_cache ();
  let events =
    with_events (fun () ->
        ignore
          (Conex.Strategy.run ~config:(small_config 1) Conex.Strategy.Pruned w);
        Ev.events Ev.global)
  in
  let names = List.map (fun (e : Ev.event) -> e.Ev.name) events in
  Helpers.check_true "strategy.begin recorded" (List.mem "strategy.begin" names);
  Helpers.check_true "strategy.end recorded" (List.mem "strategy.end" names);
  match
    List.find_opt (fun (e : Ev.event) -> e.Ev.name = "strategy.end") events
  with
  | Some e -> Helpers.check_true "kind attr" (attr_str e "kind" = Some "pruned")
  | None -> Alcotest.fail "unreachable"

let test_explain () =
  let w = Helpers.mixed_workload ~scale:3000 () in
  let _, events = explore_events 1 w in
  let s = Conex.Explain.summary events in
  List.iter
    (fun needle ->
      Helpers.check_true
        (Printf.sprintf "summary mentions %s" needle)
        (Test_metrics.contains ~needle s))
    [ "Phase I"; "Phase II"; "Clustering"; "Assignment"; "Selected" ];
  (* lifecycle of a pruned design names its dominating competitor *)
  let pruned_key =
    List.find_map
      (fun (e : Ev.event) ->
        if e.Ev.name = "design.pruned" then
          match (attr_str e "design", attr_str e "dominated_by") with
          | Some k, Some dom when dom <> "" -> Some k
          | _ -> None
        else None)
      events
  in
  (match pruned_key with
  | None -> Alcotest.fail "no pruned design with a dominator at this scale"
  | Some key -> (
    match Conex.Explain.lifecycle events ~key with
    | Error m -> Alcotest.failf "lifecycle failed: %s" m
    | Ok text ->
      Helpers.check_true "lifecycle shows the pruning verdict"
        (Test_metrics.contains ~needle:"dominated by" text);
      Helpers.check_true "lifecycle shows the creation"
        (Test_metrics.contains ~needle:"design.created" text)));
  match Conex.Explain.lifecycle events ~key:"no-such-design-key" with
  | Ok _ -> Alcotest.fail "bogus key resolved"
  | Error m ->
    Helpers.check_true "error names the key"
      (Test_metrics.contains ~needle:"no-such-design-key" m)

let suite =
  ( "event_log",
    [
      Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
      Alcotest.test_case "per-stage sequences" `Quick test_per_stage_sequences;
      Alcotest.test_case "ring bound" `Quick test_ring_bound;
      Alcotest.test_case "schedule-dependent filter" `Quick
        test_schedule_dependent;
      Alcotest.test_case "canonical sort" `Quick test_canonical_sort;
      Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
      Alcotest.test_case "load clean file" `Quick test_load_clean_file;
      Alcotest.test_case "load tolerates truncated tail" `Quick
        test_load_truncated_tail;
      Alcotest.test_case "load rejects corrupt middle" `Quick
        test_load_corrupt_middle;
      Alcotest.test_case "canonical dump strips time" `Quick
        test_canonical_dump_strips_time;
      Alcotest.test_case "chrome trace" `Quick test_chrome_trace;
      Alcotest.test_case "terminal verdicts" `Slow test_terminal_verdicts;
      Alcotest.test_case "pruned names a front member" `Slow
        test_pruned_names_front_member;
      Alcotest.test_case "serial = parallel events" `Slow
        test_parity_serial_vs_parallel;
      Alcotest.test_case "strategy events" `Slow test_strategy_events;
      Alcotest.test_case "explain" `Slow test_explain;
    ] )
