(* The tracker mirrors the Metrics/Event_log idiom: one ambient
   instance, disabled at program start, a single atomic load on every
   tick's fast path.  The watchdog is its own domain so snapshots keep
   flowing — and the stall flag can trip — even when the commit loop
   has stopped committing.  State mutation happens under one mutex;
   file I/O happens outside it. *)

type progress = {
  shards_planned : int;
  shards_committed : int;
  evals_committed : int;
  archive_size : int;
}

type timing = {
  elapsed_s : float;
  eval_rate : float;
  eta_s : float option;
  last_commit_age_s : float;
  stalled : bool;
}

type cache = { hits : int; misses : int; hit_rate : float }
type domain_util = { dom_id : int; busy_s : float; utilization : float }

type t = {
  version : int;
  phase : string;
  progress : progress;
  timing : timing;
  cache : cache;
  domains : domain_util list;
}

let schema_version = 1

(* -- rendering ------------------------------------------------------------ *)

let canonical_fields s =
  [
    ("version", Json.int s.version);
    ("phase", Json.Str s.phase);
    ( "progress",
      Json.Obj
        [
          ("shards_planned", Json.int s.progress.shards_planned);
          ("shards_committed", Json.int s.progress.shards_committed);
          ("evals_committed", Json.int s.progress.evals_committed);
          ("archive_size", Json.int s.progress.archive_size);
        ] );
  ]

let render fields = Json.to_string (Json.Obj fields) ^ "\n"
let canonical_json s = render (canonical_fields s)

let to_json s =
  let t = s.timing and num x = Json.Num x in
  let domain d =
    Json.Obj
      [
        ("id", Json.int d.dom_id);
        ("busy_s", num d.busy_s);
        ("utilization", num d.utilization);
      ]
  in
  render
    (canonical_fields s
    @ [
        ( "timing",
          Json.Obj
            [
              ("elapsed_s", num t.elapsed_s);
              ("eval_rate", num t.eval_rate);
              ("eta_s", Option.fold ~none:Json.Null ~some:num t.eta_s);
              ("last_commit_age_s", num t.last_commit_age_s);
              ("stalled", Json.Bool t.stalled);
            ] );
        ( "cache",
          Json.Obj
            [
              ("hits", Json.int s.cache.hits);
              ("misses", Json.int s.cache.misses);
              ("hit_rate", num s.cache.hit_rate);
            ] );
        ( "sched",
          Json.Obj [ ("domains", Json.Arr (List.map domain s.domains)) ] );
      ])

let of_json text =
  match Json.parse (String.trim text) with
  | Error m -> Error m
  | Ok doc ->
    let ( let* ) r f = Result.bind r f in
    let int_at ?(default = None) path =
      let rec walk v = function
        | [] -> Json.to_int_opt v
        | k :: rest -> Option.bind (Json.member k v) (fun v -> walk v rest)
      in
      match (walk doc path, default) with
      | Some i, _ -> Ok i
      | None, Some d -> Ok d
      | None, None ->
        Error
          (Printf.sprintf "missing or non-integer %S"
             (String.concat "." path))
    in
    let float_at path =
      let rec walk v = function
        | [] -> Json.to_float_opt v
        | k :: rest -> Option.bind (Json.member k v) (fun v -> walk v rest)
      in
      Option.value ~default:0.0 (walk doc path)
    in
    let* version = int_at [ "version" ] in
    let* phase =
      match Option.bind (Json.member "phase" doc) Json.to_string_opt with
      | Some p -> Ok p
      | None -> Error "missing or non-string \"phase\""
    in
    let* shards_planned = int_at [ "progress"; "shards_planned" ] in
    let* shards_committed = int_at [ "progress"; "shards_committed" ] in
    let* evals_committed = int_at [ "progress"; "evals_committed" ] in
    let* archive_size = int_at [ "progress"; "archive_size" ] in
    let eta_s =
      Option.bind
        (Option.bind (Json.member "timing" doc) (Json.member "eta_s"))
        Json.to_float_opt
    in
    let stalled =
      Option.value ~default:false
        (Option.bind
           (Option.bind (Json.member "timing" doc) (Json.member "stalled"))
           Json.to_bool_opt)
    in
    let* hits = int_at ~default:(Some 0) [ "cache"; "hits" ] in
    let* misses = int_at ~default:(Some 0) [ "cache"; "misses" ] in
    let domains =
      match
        Option.bind (Json.member "sched" doc) (Json.member "domains")
      with
      | Some (Json.Arr ds) ->
        List.filter_map
          (fun d ->
            match Option.bind (Json.member "id" d) Json.to_int_opt with
            | None -> None
            | Some dom_id ->
              Some
                {
                  dom_id;
                  busy_s =
                    Option.value ~default:0.0
                      (Option.bind (Json.member "busy_s" d) Json.to_float_opt);
                  utilization =
                    Option.value ~default:0.0
                      (Option.bind
                         (Json.member "utilization" d)
                         Json.to_float_opt);
                })
          ds
      | _ -> []
    in
    Ok
      {
        version;
        phase;
        progress =
          { shards_planned; shards_committed; evals_committed; archive_size };
        timing =
          {
            elapsed_s = float_at [ "timing"; "elapsed_s" ];
            eval_rate = float_at [ "timing"; "eval_rate" ];
            eta_s;
            last_commit_age_s = float_at [ "timing"; "last_commit_age_s" ];
            stalled;
          };
        cache =
          { hits; misses; hit_rate = float_at [ "cache"; "hit_rate" ] };
        domains;
      }

let to_text s =
  let b = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf
      (fun x ->
        Buffer.add_string b x;
        Buffer.add_char b '\n')
      fmt
  in
  line "phase %s%s" s.phase
    (if s.timing.stalled then
       Printf.sprintf "  [STALLED: no commit for %.0fs]"
         s.timing.last_commit_age_s
     else "");
  let p = s.progress in
  (if p.shards_planned > 0 then begin
     let width = 24 in
     let filled =
       max 0
         (min width (width * p.shards_committed / max 1 p.shards_planned))
     in
     line "  shards   %d/%d committed  [%s%s]%s" p.shards_committed
       p.shards_planned (String.make filled '=')
       (String.make (width - filled) ' ')
       (match s.timing.eta_s with
       | Some e -> Printf.sprintf "  ETA %.1fs" e
       | None -> "")
   end);
  line "  evals    %d committed, archive %d" p.evals_committed p.archive_size;
  line "  rate     %.1f evals/s, elapsed %.1fs, last commit %.1fs ago"
    s.timing.eval_rate s.timing.elapsed_s s.timing.last_commit_age_s;
  line "  cache    %d hits, %d misses (%.1f%% hit rate)" s.cache.hits
    s.cache.misses
    (100.0 *. s.cache.hit_rate);
  if s.domains <> [] then
    line "  domains  %s"
      (String.concat "  "
         (List.map
            (fun d ->
              Printf.sprintf "%d: %.0f%%" d.dom_id (100.0 *. d.utilization))
            s.domains));
  Buffer.contents b

(* -- the ambient tracker -------------------------------------------------- *)

type tracker = {
  on : bool Atomic.t;
  mu : Mutex.t;
  mutable path : string;
  mutable interval : float;
  mutable stall_after : float;
  mutable phase : string;
  mutable shards_planned : int;
  mutable shards_committed : int;
  mutable evals_committed : int;
  mutable archive_size : int;
  mutable started_at : float;
  mutable last_commit : float;
  mutable stop : bool;
  mutable watchdog : unit Domain.t option;
}

let tracker =
  {
    on = Atomic.make false;
    mu = Mutex.create ();
    path = "";
    interval = 1.0;
    stall_after = 30.0;
    phase = "";
    shards_planned = 0;
    shards_committed = 0;
    evals_committed = 0;
    archive_size = 0;
    started_at = 0.0;
    last_commit = 0.0;
    stop = false;
    watchdog = None;
  }

let active () = Atomic.get tracker.on

let domain_busy_prefix = "task_pool.sched.domain_busy_s."

let capture () =
  let tr = tracker in
  Mutex.lock tr.mu;
  let phase = tr.phase
  and shards_planned = tr.shards_planned
  and shards_committed = tr.shards_committed
  and evals_committed = tr.evals_committed
  and archive_size = tr.archive_size
  and started_at = tr.started_at
  and last_commit = tr.last_commit
  and stall_after = tr.stall_after in
  Mutex.unlock tr.mu;
  let now = Unix.gettimeofday () in
  let elapsed_s = if started_at > 0.0 then now -. started_at else 0.0 in
  let last_commit_age_s =
    if last_commit > 0.0 then now -. last_commit else elapsed_s
  in
  let eval_rate =
    if elapsed_s > 0.0 then float_of_int evals_committed /. elapsed_s else 0.0
  in
  let eta_s =
    if shards_committed > 0 && shards_planned >= shards_committed then
      Some
        (elapsed_s /. float_of_int shards_committed
        *. float_of_int (shards_planned - shards_committed))
    else None
  in
  let hits = Metrics.counter_value Metrics.global "eval.cache.hits"
  and misses = Metrics.counter_value Metrics.global "eval.cache.misses" in
  let hit_rate =
    if hits + misses > 0 then
      float_of_int hits /. float_of_int (hits + misses)
    else 0.0
  in
  let domains =
    let ms = Metrics.snapshot Metrics.global in
    List.filter_map
      (fun (name, (h : Metrics.hist)) ->
        let pl = String.length domain_busy_prefix in
        if
          String.length name > pl
          && String.sub name 0 pl = domain_busy_prefix
        then
          match
            int_of_string_opt (String.sub name pl (String.length name - pl))
          with
          | None -> None
          | Some dom_id ->
            let busy_s = h.Metrics.sum in
            Some
              {
                dom_id;
                busy_s;
                utilization =
                  (if elapsed_s > 0.0 then
                     Float.min 1.0 (Float.max 0.0 (busy_s /. elapsed_s))
                   else 0.0);
              }
        else None)
      ms.Metrics.histograms
    |> List.sort (fun a b -> compare a.dom_id b.dom_id)
  in
  {
    version = schema_version;
    phase;
    progress =
      { shards_planned; shards_committed; evals_committed; archive_size };
    timing =
      {
        elapsed_s;
        eval_rate;
        eta_s;
        last_commit_age_s;
        stalled = last_commit_age_s > stall_after;
      };
    cache = { hits; misses; hit_rate };
    domains;
  }

(* Write-temp + rename in the target's directory: a concurrent reader
   of [path] sees either the previous document or this one, whole. *)
let atomic_write ~path content =
  let tmp = path ^ ".tmp" in
  match open_out tmp with
  | exception Sys_error _ -> ()
  | oc ->
    let ok =
      match
        output_string oc content;
        close_out oc
      with
      | () -> true
      | exception Sys_error _ ->
        (try close_out_noerr oc with _ -> ());
        false
    in
    if ok then ( try Sys.rename tmp path with Sys_error _ -> ())

let write_now () =
  if active () then atomic_write ~path:tracker.path (to_json (capture ()))

let rec watchdog_loop last_write =
  let tr = tracker in
  Mutex.lock tr.mu;
  let stop = tr.stop and interval = tr.interval in
  Mutex.unlock tr.mu;
  if not stop then begin
    let now = Unix.gettimeofday () in
    let last_write =
      if now -. last_write >= interval then begin
        write_now ();
        now
      end
      else last_write
    in
    Unix.sleepf (Float.min 0.05 interval);
    watchdog_loop last_write
  end

let finish () =
  if active () then begin
    let tr = tracker in
    Mutex.lock tr.mu;
    tr.stop <- true;
    let wd = tr.watchdog in
    tr.watchdog <- None;
    Mutex.unlock tr.mu;
    (match wd with Some d -> Domain.join d | None -> ());
    write_now ();
    Atomic.set tr.on false;
    Mutex.lock tr.mu;
    tr.phase <- "";
    tr.shards_planned <- 0;
    tr.shards_committed <- 0;
    tr.evals_committed <- 0;
    tr.archive_size <- 0;
    tr.started_at <- 0.0;
    tr.last_commit <- 0.0;
    tr.stop <- false;
    Mutex.unlock tr.mu
  end

let start ?(interval = 1.0) ?(stall_after = 30.0) ~path () =
  finish ();
  let tr = tracker in
  let now = Unix.gettimeofday () in
  Mutex.lock tr.mu;
  tr.path <- path;
  tr.interval <- Float.max 0.05 interval;
  tr.stall_after <- stall_after;
  tr.phase <- "starting";
  tr.shards_planned <- 0;
  tr.shards_committed <- 0;
  tr.evals_committed <- 0;
  tr.archive_size <- 0;
  tr.started_at <- now;
  tr.last_commit <- now;
  tr.stop <- false;
  Mutex.unlock tr.mu;
  Atomic.set tr.on true;
  write_now ();
  let d = Domain.spawn (fun () -> watchdog_loop (Unix.gettimeofday ())) in
  Mutex.lock tr.mu;
  tr.watchdog <- Some d;
  Mutex.unlock tr.mu

(* -- ticks ---------------------------------------------------------------- *)

let with_state f =
  if Atomic.get tracker.on then begin
    Mutex.lock tracker.mu;
    f tracker;
    Mutex.unlock tracker.mu
  end

let set_phase p = with_state (fun tr -> tr.phase <- p)

let add_shards_planned n =
  with_state (fun tr -> tr.shards_planned <- tr.shards_planned + n)

let shard_committed ?archive () =
  with_state (fun tr ->
      tr.shards_committed <- tr.shards_committed + 1;
      (match archive with Some a -> tr.archive_size <- a | None -> ());
      tr.last_commit <- Unix.gettimeofday ())

let eval_committed ?(by = 1) ?archive () =
  with_state (fun tr ->
      tr.evals_committed <- tr.evals_committed + by;
      (match archive with Some a -> tr.archive_size <- a | None -> ());
      tr.last_commit <- Unix.gettimeofday ())
