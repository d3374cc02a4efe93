(* Counters are atomics so any domain may bump them lock-free; gauges,
   histograms and the finished-span forest live behind one registry
   mutex (all updates there are coarse-grained — per run or per chunk,
   never per access).  Span stacks are domain-local: nesting is only
   meaningful within one domain, and a root finishing on any domain
   merges into the shared forest under the mutex. *)

type hist = {
  h_unit : string;
  count : int;
  sum : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

(* The accumulator behind a histogram keeps every sample so the
   snapshot can report exact nearest-rank percentiles.  Observation is
   per-chunk / per-shard — coarse by design (see the header comment) —
   so retention is a few thousand floats per run, not per-access
   volume. *)
type hist_acc = {
  a_unit : string;
  mutable a_count : int;
  mutable a_sum : float;
  mutable a_min : float;
  mutable a_max : float;
  mutable a_samples : float list;  (* newest first *)
}

type span = {
  span_name : string;
  start : float;
  seconds : float;
  children : span list;
}

(* A span being built: children accumulate in reverse. *)
type open_span = {
  o_name : string;
  o_start : float;
  mutable o_children : span list;
}

type t = {
  on : bool Atomic.t;
  mu : Mutex.t;
  counters : (string, int Atomic.t) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  histograms : (string, hist_acc) Hashtbl.t;
  mutable roots : span list;  (* reversed *)
  mutable epoch : float;  (* creation/reset instant; span starts are
                             reported relative to it *)
  stack : open_span list ref Domain.DLS.key;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist) list;
  spans : span list;
}

let create ?(enabled = false) () =
  {
    on = Atomic.make enabled;
    mu = Mutex.create ();
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    roots = [];
    epoch = Unix.gettimeofday ();
    stack = Domain.DLS.new_key (fun () -> ref []);
  }

let global = create ()
let set_enabled t b = Atomic.set t.on b
let is_on t = Atomic.get t.on

let reset t =
  Mutex.lock t.mu;
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histograms;
  t.roots <- [];
  t.epoch <- Unix.gettimeofday ();
  Mutex.unlock t.mu

(* -- recording ----------------------------------------------------------- *)

let counter_cell t name =
  Mutex.lock t.mu;
  let c =
    match Hashtbl.find_opt t.counters name with
    | Some c -> c
    | None ->
      let c = Atomic.make 0 in
      Hashtbl.add t.counters name c;
      c
  in
  Mutex.unlock t.mu;
  c

let incr t ?(by = 1) name =
  if Atomic.get t.on then ignore (Atomic.fetch_and_add (counter_cell t name) by)

let set_gauge t name v =
  if Atomic.get t.on then begin
    Mutex.lock t.mu;
    Hashtbl.replace t.gauges name v;
    Mutex.unlock t.mu
  end

let observe t ?(unit_ = "") name v =
  if Atomic.get t.on then begin
    Mutex.lock t.mu;
    let a =
      match Hashtbl.find_opt t.histograms name with
      | Some a -> a
      | None ->
        let a =
          { a_unit = unit_; a_count = 0; a_sum = 0.0; a_min = infinity;
            a_max = neg_infinity; a_samples = [] }
        in
        Hashtbl.add t.histograms name a;
        a
    in
    a.a_count <- a.a_count + 1;
    a.a_sum <- a.a_sum +. v;
    a.a_min <- Float.min a.a_min v;
    a.a_max <- Float.max a.a_max v;
    a.a_samples <- v :: a.a_samples;
    Mutex.unlock t.mu
  end

let with_span t name f =
  if not (Atomic.get t.on) then f ()
  else begin
    let stack = Domain.DLS.get t.stack in
    let sp = { o_name = name; o_start = Unix.gettimeofday (); o_children = [] } in
    stack := sp :: !stack;
    let finish () =
      let closed =
        {
          span_name = sp.o_name;
          start = sp.o_start -. t.epoch;
          seconds = Unix.gettimeofday () -. sp.o_start;
          children = List.rev sp.o_children;
        }
      in
      (* pop back down to [sp] even if an inner span leaked open *)
      let rec pop = function
        | top :: rest when top == sp -> rest
        | _ :: rest -> pop rest
        | [] -> []
      in
      stack := pop !stack;
      match !stack with
      | parent :: _ -> parent.o_children <- closed :: parent.o_children
      | [] ->
        Mutex.lock t.mu;
        t.roots <- closed :: t.roots;
        Mutex.unlock t.mu
    in
    Fun.protect ~finally:finish f
  end

(* -- reading ------------------------------------------------------------- *)

let sorted_bindings tbl value =
  Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Called with [t.mu] held.  Percentiles are exact nearest-rank over the
   retained samples (Stats.percentile is total: None only when empty). *)
let hist_of_acc a =
  let pct p = Option.value ~default:0.0 (Stats.percentile a.a_samples ~p) in
  {
    h_unit = a.a_unit;
    count = a.a_count;
    sum = a.a_sum;
    min_v = a.a_min;
    max_v = a.a_max;
    p50 = pct 50.0;
    p95 = pct 95.0;
    p99 = pct 99.0;
  }

let snapshot t =
  Mutex.lock t.mu;
  let s =
    {
      counters = sorted_bindings t.counters Atomic.get;
      gauges = sorted_bindings t.gauges Fun.id;
      histograms = sorted_bindings t.histograms hist_of_acc;
      spans = List.rev t.roots;
    }
  in
  Mutex.unlock t.mu;
  s

let counter_value t name =
  Mutex.lock t.mu;
  let v =
    match Hashtbl.find_opt t.counters name with
    | Some c -> Atomic.get c
    | None -> 0
  in
  Mutex.unlock t.mu;
  v

(* Does [name] contain [needle] as a segment (at the start or after a
   dot)?  [needle] must end with '.'. *)
let has_segment needle name =
  let nl = String.length needle and l = String.length name in
  let rec go i =
    if i + nl > l then false
    else if
      String.sub name i nl = needle && (i = 0 || name.[i - 1] = '.')
    then true
    else go (i + 1)
  in
  go 0

(* [sched.] names measure scheduling itself; [cache.] names can depend
   on eviction order, which is scheduling-dependent once a cache
   overflows its capacity.  Both are excluded from the parity
   contract. *)
let schedule_dependent name =
  has_segment "sched." name || has_segment "cache." name

let deterministic_counters (s : snapshot) =
  List.filter (fun (name, _) -> not (schedule_dependent name)) s.counters

(* -- rendering ----------------------------------------------------------- *)

let hist_mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

let to_text t =
  let s = snapshot t in
  let b = Buffer.create 1024 in
  let section name = function
    | [] -> ()
    | rows ->
      Buffer.add_string b (name ^ ":\n");
      List.iter (fun r -> Buffer.add_string b ("  " ^ r ^ "\n")) rows
  in
  section "counters"
    (List.map (fun (k, v) -> Printf.sprintf "%-46s %d" k v) s.counters);
  section "gauges"
    (List.map (fun (k, v) -> Printf.sprintf "%-46s %.6g" k v) s.gauges);
  section "histograms"
    (List.map
       (fun (k, h) ->
         Printf.sprintf
           "%-46s n=%d sum=%.6g min=%.6g max=%.6g mean=%.6g p50=%.6g \
            p95=%.6g p99=%.6g %s"
           k h.count h.sum
           (if h.count = 0 then 0.0 else h.min_v)
           (if h.count = 0 then 0.0 else h.max_v)
           (hist_mean h) h.p50 h.p95 h.p99 h.h_unit)
       s.histograms);
  (if s.spans <> [] then begin
     Buffer.add_string b "spans:\n";
     let rec render indent (sp : span) =
       Buffer.add_string b
         (Printf.sprintf "%s%-*s %.4fs\n" indent
            (max 1 (48 - String.length indent))
            sp.span_name sp.seconds);
       List.iter (render (indent ^ "  ")) sp.children
     in
     List.iter (render "  ") s.spans
   end);
  Buffer.contents b

let to_json_value t =
  let s = snapshot t in
  let obj rows render =
    Json.Obj (List.map (fun (k, v) -> (k, render v)) rows)
  in
  let hist h =
    let num x = Json.Num x in
    let seen x = num (if h.count = 0 then 0.0 else x) in
    Json.Obj
      [
        ("unit", Json.Str h.h_unit);
        ("count", Json.int h.count);
        ("sum", num h.sum);
        ("min", seen h.min_v);
        ("max", seen h.max_v);
        ("mean", num (hist_mean h));
        ("p50", num h.p50);
        ("p95", num h.p95);
        ("p99", num h.p99);
      ]
  in
  let rec span (sp : span) =
    Json.Obj
      [
        ("name", Json.Str sp.span_name);
        ("start", Json.Num sp.start);
        ("seconds", Json.Num sp.seconds);
        ("children", Json.Arr (List.map span sp.children));
      ]
  in
  Json.Obj
    [
      ("counters", obj s.counters Json.int);
      ("gauges", obj s.gauges (fun v -> Json.Num v));
      ("histograms", obj s.histograms hist);
      ("spans", Json.Arr (List.map span s.spans));
    ]

let to_json t = Json.to_string (to_json_value t) ^ "\n"
