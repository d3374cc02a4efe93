(* Mx_util.Metrics: counters, gauges, histograms, span trees, rendering,
   and the determinism contract (serial and parallel exploration runs
   must report identical non-sched counters). *)

module Metrics = Mx_util.Metrics
module Task_pool = Mx_util.Task_pool
module Explore = Conex.Explore

(* -- minimal JSON syntax checker (no external deps) ----------------------- *)

(* Validates full JSON syntax: objects, arrays, strings with escapes,
   numbers, literals.  Returns [Error msg] with a position on the first
   violation.  Shared with the CLI tests (test_cli.ml). *)
let json_ok (s : string) : (unit, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | Some x -> bad "expected %C at %d, got %C" c !pos x
    | None -> bad "expected %C at %d, got EOF" c !pos
  in
  let literal word =
    String.iter expect word
  in
  let is_digit c = c >= '0' && c <= '9' in
  let digits () =
    if not (match peek () with Some c -> is_digit c | None -> false) then
      bad "expected digit at %d" !pos;
    while match peek () with Some c -> is_digit c | None -> false do
      advance ()
    done
  in
  let number () =
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ())
  in
  let string_lit () =
    expect '"';
    let closed = ref false in
    while not !closed do
      match peek () with
      | None -> bad "unterminated string at %d" !pos
      | Some '"' ->
        advance ();
        closed := true
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some c
              when is_digit c
                   || (c >= 'a' && c <= 'f')
                   || (c >= 'A' && c <= 'F') ->
              advance ()
            | _ -> bad "bad \\u escape at %d" !pos
          done
        | _ -> bad "bad escape at %d" !pos)
      | Some c when Char.code c < 0x20 -> bad "raw control char at %d" !pos
      | Some _ -> advance ()
    done
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let continue = ref true in
        while !continue do
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' -> advance ()
          | Some '}' ->
            advance ();
            continue := false
          | _ -> bad "expected ',' or '}' at %d" !pos
        done
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let continue = ref true in
        while !continue do
          value ();
          skip_ws ();
          match peek () with
          | Some ',' -> advance ()
          | Some ']' ->
            advance ();
            continue := false
          | _ -> bad "expected ',' or ']' at %d" !pos
        done
      end
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> bad "unexpected %C at %d" c !pos
    | None -> bad "unexpected EOF at %d" !pos
  in
  try
    value ();
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at %d" !pos)
    else Ok ()
  with Bad m -> Error m

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_json msg doc =
  match json_ok doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid JSON (%s) in:\n%s" msg e doc

(* -- primitives ------------------------------------------------------------ *)

let test_counters () =
  let m = Metrics.create ~enabled:true () in
  Metrics.incr m "a";
  Metrics.incr m "a";
  Metrics.incr m ~by:5 "b";
  Metrics.incr m ~by:(-2) "b";
  Helpers.check_int "a" 2 (Metrics.counter_value m "a");
  Helpers.check_int "b" 3 (Metrics.counter_value m "b");
  Helpers.check_int "missing counter reads 0" 0 (Metrics.counter_value m "zzz");
  let snap = Metrics.snapshot m in
  Helpers.check_true "snapshot sorted by name"
    (List.map fst snap.Metrics.counters = [ "a"; "b" ])

let test_disabled_is_noop () =
  let m = Metrics.create () in
  Helpers.check_true "disabled by default" (not (Metrics.is_on m));
  Metrics.incr m "a";
  Metrics.set_gauge m "g" 1.0;
  Metrics.observe m "h" 2.0;
  let v = Metrics.with_span m "s" (fun () -> 41 + 1) in
  Helpers.check_int "with_span still returns the value" 42 v;
  let snap = Metrics.snapshot m in
  Helpers.check_true "nothing recorded"
    (snap.Metrics.counters = [] && snap.Metrics.gauges = []
    && snap.Metrics.histograms = [] && snap.Metrics.spans = [])

let test_reset () =
  let m = Metrics.create ~enabled:true () in
  Metrics.incr m "a";
  Metrics.set_gauge m "g" 1.0;
  Metrics.observe m "h" 2.0;
  Metrics.with_span m "s" ignore;
  Metrics.reset m;
  Helpers.check_true "still enabled after reset" (Metrics.is_on m);
  let snap = Metrics.snapshot m in
  Helpers.check_true "empty after reset"
    (snap.Metrics.counters = [] && snap.Metrics.gauges = []
    && snap.Metrics.histograms = [] && snap.Metrics.spans = [])

let test_gauges () =
  let m = Metrics.create ~enabled:true () in
  Metrics.set_gauge m "g" 1.5;
  Metrics.set_gauge m "g" 2.5;
  let snap = Metrics.snapshot m in
  Helpers.check_true "last write wins" (snap.Metrics.gauges = [ ("g", 2.5) ])

let test_histograms () =
  let m = Metrics.create ~enabled:true () in
  Metrics.observe m ~unit_:"cycles" "h" 3.0;
  Metrics.observe m "h" 1.0;
  Metrics.observe m "h" 5.0;
  match (Metrics.snapshot m).Metrics.histograms with
  | [ ("h", h) ] ->
    Helpers.check_int "count" 3 h.Metrics.count;
    Helpers.check_float "sum" 9.0 h.Metrics.sum;
    Helpers.check_float "min" 1.0 h.Metrics.min_v;
    Helpers.check_float "max" 5.0 h.Metrics.max_v;
    Helpers.check_true "unit fixed by first observation"
      (h.Metrics.h_unit = "cycles");
    (* nearest-rank on [1;3;5] *)
    Helpers.check_float "p50" 3.0 h.Metrics.p50;
    Helpers.check_float "p95" 5.0 h.Metrics.p95;
    Helpers.check_float "p99" 5.0 h.Metrics.p99
  | other -> Alcotest.failf "expected one histogram, got %d" (List.length other)

let test_histogram_percentiles () =
  let m = Metrics.create ~enabled:true () in
  for i = 1 to 100 do
    Metrics.observe m "h" (float_of_int i)
  done;
  (match (Metrics.snapshot m).Metrics.histograms with
  | [ ("h", h) ] ->
    (* nearest-rank over 1..100 lands exactly on the percentile index *)
    Helpers.check_float "p50 of 1..100" 50.0 h.Metrics.p50;
    Helpers.check_float "p95 of 1..100" 95.0 h.Metrics.p95;
    Helpers.check_float "p99 of 1..100" 99.0 h.Metrics.p99
  | other -> Alcotest.failf "expected one histogram, got %d" (List.length other));
  let doc = Metrics.to_json m in
  check_json "histogram document" doc;
  List.iter
    (fun needle ->
      Helpers.check_true
        (Printf.sprintf "json exposes %s" needle)
        (contains ~needle doc))
    [ "\"p50\""; "\"p95\""; "\"p99\"" ]

let test_span_nesting () =
  let m = Metrics.create ~enabled:true () in
  Metrics.with_span m "root" (fun () ->
      Metrics.with_span m "child1" ignore;
      Metrics.with_span m "child2" (fun () -> Metrics.with_span m "leaf" ignore));
  match (Metrics.snapshot m).Metrics.spans with
  | [ r ] ->
    Helpers.check_true "root name" (r.Metrics.span_name = "root");
    Helpers.check_true "children in open order"
      (List.map (fun c -> c.Metrics.span_name) r.Metrics.children
      = [ "child1"; "child2" ]);
    (match r.Metrics.children with
    | [ _; c2 ] ->
      Helpers.check_true "grandchild nests"
        (List.map (fun c -> c.Metrics.span_name) c2.Metrics.children
        = [ "leaf" ])
    | _ -> Alcotest.fail "expected two children");
    Helpers.check_true "durations non-negative"
      (r.Metrics.seconds >= 0.0
      && List.for_all (fun c -> c.Metrics.seconds >= 0.0) r.Metrics.children)
  | other -> Alcotest.failf "expected one root span, got %d" (List.length other)

let test_span_start_offsets () =
  let m = Metrics.create ~enabled:true () in
  Metrics.with_span m "root" (fun () ->
      Metrics.with_span m "child" (fun () -> ignore (Sys.opaque_identity 1)));
  (match (Metrics.snapshot m).Metrics.spans with
  | [ r ] ->
    Helpers.check_true "root start is a non-negative offset"
      (r.Metrics.start >= 0.0);
    (match r.Metrics.children with
    | [ c ] ->
      Helpers.check_true "child opens at or after its parent"
        (c.Metrics.start >= r.Metrics.start)
    | _ -> Alcotest.fail "expected one child");
    Helpers.check_true "start is relative to the registry epoch (small)"
      (r.Metrics.start < 60.0)
  | other -> Alcotest.failf "expected one root span, got %d" (List.length other));
  let doc = Metrics.to_json m in
  check_json "span start document" doc;
  Helpers.check_true "span json has a start field"
    (contains ~needle:"\"start\"" doc)

exception Span_boom

let test_span_closed_on_exception () =
  let m = Metrics.create ~enabled:true () in
  (try Metrics.with_span m "failing" (fun () -> raise Span_boom)
   with Span_boom -> ());
  (match (Metrics.snapshot m).Metrics.spans with
  | [ r ] -> Helpers.check_true "span recorded" (r.Metrics.span_name = "failing")
  | _ -> Alcotest.fail "span lost on exception");
  (* the stack recovered: the next span is a fresh root, not a child *)
  Metrics.with_span m "after" ignore;
  Helpers.check_int "both spans are roots" 2
    (List.length (Metrics.snapshot m).Metrics.spans)

(* -- domain safety --------------------------------------------------------- *)

let test_concurrent_counters () =
  let m = Metrics.create ~enabled:true () in
  ignore
    (Task_pool.parallel_map ~jobs:4 ~chunk:1
       (fun _ ->
         Metrics.incr m "hits";
         Metrics.observe m ~unit_:"x" "obs" 1.0)
       (List.init 500 Fun.id));
  Helpers.check_int "atomic counter sees every increment" 500
    (Metrics.counter_value m "hits");
  match (Metrics.snapshot m).Metrics.histograms with
  | [ ("obs", h) ] -> Helpers.check_int "histogram sees every sample" 500 h.Metrics.count
  | _ -> Alcotest.fail "histogram missing"

let test_spans_per_domain () =
  let m = Metrics.create ~enabled:true () in
  ignore
    (Task_pool.parallel_map ~jobs:4 ~chunk:1
       (fun i -> Metrics.with_span m "w" (fun () -> i * i))
       (List.init 16 Fun.id));
  let spans = (Metrics.snapshot m).Metrics.spans in
  Helpers.check_int "each call is its own root span" 16 (List.length spans);
  Helpers.check_true "no cross-domain nesting"
    (List.for_all (fun s -> s.Metrics.children = []) spans)

(* -- the sched. determinism convention ------------------------------------- *)

let test_deterministic_counters_filter () =
  let m = Metrics.create ~enabled:true () in
  List.iter (Metrics.incr m)
    [
      "explore.estimates";
      "task_pool.sched.dispatched_chunks";
      "sched.top_level";
      "scheduled.not_filtered" (* "sched" must be a whole dotted segment *);
      "eval.cache.hits";
      "cache.top_level";
      "cached.not_filtered" (* likewise "cache" *);
    ];
  let det = Metrics.deterministic_counters (Metrics.snapshot m) in
  Helpers.check_true "sched./cache. names dropped, others kept"
    (List.map fst det
    = [ "cached.not_filtered"; "explore.estimates"; "scheduled.not_filtered" ])

(* -- rendering ------------------------------------------------------------- *)

let populated () =
  let m = Metrics.create ~enabled:true () in
  Metrics.incr m ~by:7 "counter.one";
  Metrics.set_gauge m "gauge.one" 0.25;
  Metrics.observe m ~unit_:"s" "hist.one" 1.5;
  Metrics.observe m "hist.one" 2.5;
  Metrics.with_span m "outer" (fun () -> Metrics.with_span m "inner" ignore);
  m

let test_to_text () =
  let txt = Metrics.to_text (populated ()) in
  List.iter
    (fun needle ->
      Helpers.check_true
        (Printf.sprintf "text mentions %s" needle)
        (contains ~needle txt))
    [ "counter.one"; "7"; "gauge.one"; "hist.one"; "outer"; "inner" ]

let test_to_json_valid () =
  let doc = Metrics.to_json (populated ()) in
  check_json "registry document" doc;
  List.iter
    (fun needle ->
      Helpers.check_true
        (Printf.sprintf "json mentions %s" needle)
        (contains ~needle doc))
    [
      "\"counters\""; "\"gauges\""; "\"histograms\""; "\"spans\"";
      "\"counter.one\": 7"; "\"unit\": \"s\""; "\"mean\"";
    ];
  Helpers.check_true "document ends with newline"
    (String.length doc > 0 && doc.[String.length doc - 1] = '\n')

let test_json_escaping () =
  let m = Metrics.create ~enabled:true () in
  Metrics.incr m "weird \"name\" with \\ and \ttab";
  Metrics.set_gauge m "inf" infinity;
  Metrics.set_gauge m "nan" nan;
  check_json "escaped names and non-finite floats" (Metrics.to_json m)

let test_json_numbers () =
  List.iter
    (fun (x, want) ->
      Alcotest.(check string)
        (Printf.sprintf "%h" x) want
        (Mx_util.Json.to_string (Mx_util.Json.Num x)))
    [
      (infinity, "null"); (neg_infinity, "null"); (nan, "null");
      (1234567.0, "1234567"); (0.1, "0.1"); (-0.0, "-0");
      (1.0 /. 3.0, "0.33333333333333331");
    ]

let test_json_unicode_escapes () =
  let parse lit = Mx_util.Json.parse ("\"" ^ lit ^ "\"") in
  List.iter
    (fun (lit, want) ->
      Helpers.check_true (lit ^ " decodes to UTF-8")
        (parse lit = Ok (Mx_util.Json.Str want)))
    [
      ({|caf\u00e9|}, "caf\xc3\xa9");
      ({|\ud83d\ude00|}, "\xf0\x9f\x98\x80");
      ({|\u0041\u00E9|}, "A\xc3\xa9");
    ];
  List.iter
    (fun lit ->
      Helpers.check_true (lit ^ " is rejected") (Result.is_error (parse lit)))
    [ {|\ud800|}; {|\ud800x|}; {|\ude00|}; {|\ud83d\u0041|}; {|\u00_e|}; {|\u12|} ]

let test_empty_registry_json () =
  check_json "empty registry" (Metrics.to_json (Metrics.create ~enabled:true ()))

(* -- utilisation gauges ---------------------------------------------------- *)

let test_record_utilization_gauges () =
  let m = Metrics.create ~enabled:true () in
  Metrics.incr m ~by:100 "cycle_sim.cycles";
  Metrics.incr m ~by:25 "cycle_sim.bus.ahb32.busy_cycles";
  Metrics.incr m ~by:50 "cycle_sim.bus.off32.busy_cycles";
  Mx_sim.Cycle_sim.record_utilization_gauges ~registry:m ();
  let gauges = (Metrics.snapshot m).Metrics.gauges in
  Helpers.check_float "ahb32 utilisation" 0.25
    (List.assoc "cycle_sim.bus.ahb32.utilization" gauges);
  Helpers.check_float "off32 utilisation" 0.5
    (List.assoc "cycle_sim.bus.off32.utilization" gauges)

(* -- serial vs parallel counter parity on the real pipeline ---------------- *)

let small_config jobs =
  {
    Explore.reduced_config with
    Explore.apex =
      { Mx_apex.Explore.reduced_config with Mx_apex.Explore.max_selected = 3 };
    jobs;
  }

let run_with_metrics jobs w =
  (* each arm must start cold: a warm result cache would serve the
     second run entirely from memory and zero out its simulator/estimator
     counters, which is exactly the carry-over the parity contract is
     not about *)
  Mx_sim.Eval.clear_cache ();
  Helpers.with_global_metrics (fun () ->
      let r = Explore.run ~config:(small_config jobs) w in
      Mx_sim.Cycle_sim.record_utilization_gauges ();
      (r, Metrics.snapshot Metrics.global))

let test_explore_counter_parity () =
  let w = Helpers.mixed_workload ~scale:4000 () in
  let r1, s1 = run_with_metrics 1 w in
  let rn, sn = run_with_metrics Helpers.test_jobs w in
  Helpers.check_true "results identical"
    (r1.Explore.n_estimates = rn.Explore.n_estimates
    && r1.Explore.n_simulations = rn.Explore.n_simulations);
  (* the contract: every non-sched counter identical across jobs levels *)
  let d1 = Metrics.deterministic_counters s1
  and dn = Metrics.deterministic_counters sn in
  if d1 <> dn then begin
    let dump l =
      String.concat "\n"
        (List.map (fun (k, v) -> Printf.sprintf "  %s = %d" k v) l)
    in
    Alcotest.failf "counter divergence between jobs=1 and jobs=%d:\njobs=1:\n%s\njobs=%d:\n%s"
      Helpers.test_jobs (dump d1) Helpers.test_jobs (dump dn)
  end;
  (* gauges are derived from deterministic counters, so they match too *)
  Helpers.check_true "gauges identical" (s1.Metrics.gauges = sn.Metrics.gauges);
  (* funnel counters agree with the result record *)
  let c name l = try List.assoc name l with Not_found -> -1 in
  Helpers.check_int "explore.estimates = n_estimates" r1.Explore.n_estimates
    (c "explore.estimates" d1);
  Helpers.check_int "explore.simulations = n_simulations"
    r1.Explore.n_simulations
    (c "explore.simulations" d1);
  Helpers.check_int "explore.pareto_points = front size"
    (List.length r1.Explore.pareto_cost_perf)
    (c "explore.pareto_points" d1);
  Helpers.check_int "explore.architectures = apex selection"
    (List.length r1.Explore.apex_selected)
    (c "explore.architectures" d1);
  (* the instrumentation actually fired at every layer *)
  List.iter
    (fun name ->
      Helpers.check_true (name ^ " > 0") (c name d1 > 0))
    [
      "cycle_sim.runs"; "cycle_sim.accesses"; "cluster.merges";
      "assign.enumerated"; "assign.levels"; "task_pool.items";
    ];
  Helpers.check_true "bus utilisation gauges exist"
    (List.exists
       (fun (k, _) ->
         String.length k > 14 && String.sub k 0 14 = "cycle_sim.bus.")
       s1.Metrics.gauges)

let test_explore_span_tree () =
  let w = Helpers.mixed_workload ~scale:3000 () in
  let _, snap = run_with_metrics 1 w in
  match snap.Metrics.spans with
  | [ root ] ->
    Helpers.check_true "root is the run span"
      (root.Metrics.span_name = "explore.run:mixed");
    let names = List.map (fun s -> s.Metrics.span_name) root.Metrics.children in
    List.iter
      (fun phase ->
        Helpers.check_true (phase ^ " phase span present")
          (List.mem phase names))
      [ "apex.select"; "explore.phase1"; "explore.phase2" ]
  | other -> Alcotest.failf "expected one root span, got %d" (List.length other)

let suite =
  ( "metrics",
    [
      Alcotest.test_case "counters" `Quick test_counters;
      Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
      Alcotest.test_case "reset" `Quick test_reset;
      Alcotest.test_case "gauges" `Quick test_gauges;
      Alcotest.test_case "histograms" `Quick test_histograms;
      Alcotest.test_case "histogram percentiles" `Quick
        test_histogram_percentiles;
      Alcotest.test_case "span nesting" `Quick test_span_nesting;
      Alcotest.test_case "span start offsets" `Quick test_span_start_offsets;
      Alcotest.test_case "span closed on exception" `Quick
        test_span_closed_on_exception;
      Alcotest.test_case "concurrent counters" `Quick test_concurrent_counters;
      Alcotest.test_case "spans per domain" `Quick test_spans_per_domain;
      Alcotest.test_case "deterministic filter" `Quick
        test_deterministic_counters_filter;
      Alcotest.test_case "to_text" `Quick test_to_text;
      Alcotest.test_case "to_json valid" `Quick test_to_json_valid;
      Alcotest.test_case "json escaping" `Quick test_json_escaping;
      Alcotest.test_case "empty registry json" `Quick test_empty_registry_json;
      Alcotest.test_case "utilisation gauges" `Quick
        test_record_utilization_gauges;
      Alcotest.test_case "serial = parallel counters" `Slow
        test_explore_counter_parity;
      Alcotest.test_case "span tree shape" `Slow test_explore_span_tree;
      Alcotest.test_case "json numbers: exact, non-finite as null" `Quick
        test_json_numbers;
      Alcotest.test_case "json unicode escapes: UTF-8, pairs, lone surrogates"
        `Quick test_json_unicode_escapes;
    ] )
