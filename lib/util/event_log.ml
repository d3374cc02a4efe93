(* A bounded ring of structured events behind one mutex.  Emission is
   per-decision (per design, per merge), never per memory access, so a
   coarse lock is fine; the disabled path is a single atomic load.  The
   buffer starts small and grows geometrically up to the capacity, at
   which point it wraps and drops the oldest event. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type event = {
  stage : string;
  seq : int;
  name : string;
  attrs : (string * value) list;
  t_ms : float;
}

type t = {
  on : bool Atomic.t;
  mu : Mutex.t;
  cap : int;
  mutable buf : event option array;
  mutable first : int;  (* index of the oldest event *)
  mutable len : int;
  mutable n_dropped : int;
  seqs : (string, int ref) Hashtbl.t;
  mutable epoch : float;
}

let default_capacity = 1 lsl 20

let initial_alloc cap = min cap 1024

let create ?(capacity = default_capacity) ?(enabled = false) () =
  let cap = max 1 capacity in
  {
    on = Atomic.make enabled;
    mu = Mutex.create ();
    cap;
    buf = Array.make (initial_alloc cap) None;
    first = 0;
    len = 0;
    n_dropped = 0;
    seqs = Hashtbl.create 16;
    epoch = Unix.gettimeofday ();
  }

let global = create ()
let set_enabled t b = Atomic.set t.on b
let is_on t = Atomic.get t.on
let capacity t = t.cap

let reset t =
  Mutex.lock t.mu;
  t.buf <- Array.make (initial_alloc t.cap) None;
  t.first <- 0;
  t.len <- 0;
  t.n_dropped <- 0;
  Hashtbl.reset t.seqs;
  t.epoch <- Unix.gettimeofday ();
  Mutex.unlock t.mu

(* Called with [t.mu] held. *)
let push t e =
  let alloc = Array.length t.buf in
  if t.len = alloc && alloc < t.cap then begin
    (* grow: re-layout oldest-first into a bigger array *)
    let bigger = Array.make (min t.cap (2 * alloc)) None in
    for i = 0 to t.len - 1 do
      bigger.(i) <- t.buf.((t.first + i) mod alloc)
    done;
    t.buf <- bigger;
    t.first <- 0
  end;
  let alloc = Array.length t.buf in
  if t.len < alloc then begin
    t.buf.((t.first + t.len) mod alloc) <- Some e;
    t.len <- t.len + 1
  end
  else begin
    (* full at capacity: overwrite the oldest *)
    t.buf.(t.first) <- Some e;
    t.first <- (t.first + 1) mod alloc;
    t.n_dropped <- t.n_dropped + 1
  end

let emit t ~stage ?seq name attrs =
  if Atomic.get t.on then begin
    let now = Unix.gettimeofday () in
    Mutex.lock t.mu;
    let seq =
      match seq with
      | Some s -> s
      | None ->
        let r =
          match Hashtbl.find_opt t.seqs stage with
          | Some r -> r
          | None ->
            let r = ref 0 in
            Hashtbl.add t.seqs stage r;
            r
        in
        let s = !r in
        incr r;
        s
    in
    push t { stage; seq; name; attrs; t_ms = (now -. t.epoch) *. 1000.0 };
    Mutex.unlock t.mu
  end

let events t =
  Mutex.lock t.mu;
  let alloc = Array.length t.buf in
  let out =
    List.init t.len (fun i ->
        match t.buf.((t.first + i) mod alloc) with
        | Some e -> e
        | None -> assert false)
  in
  Mutex.unlock t.mu;
  out

let length t =
  Mutex.lock t.mu;
  let n = t.len in
  Mutex.unlock t.mu;
  n

let dropped t =
  Mutex.lock t.mu;
  let n = t.n_dropped in
  Mutex.unlock t.mu;
  n

(* -- the determinism contract -------------------------------------------- *)

let schedule_dependent e = Metrics.schedule_dependent e.name

let canonical_sort evs =
  List.stable_sort
    (fun a b ->
      match String.compare a.stage b.stage with
      | 0 -> (
        match compare a.seq b.seq with
        | 0 -> String.compare a.name b.name
        | c -> c)
      | c -> c)
    evs

let deterministic_events evs =
  canonical_sort (List.filter (fun e -> not (schedule_dependent e)) evs)

(* -- JSONL rendering ------------------------------------------------------ *)

let escape = Json.escape
let json_float = Json.number

let value_to_json = function
  | Str s -> "\"" ^ escape s ^ "\""
  | Int i -> string_of_int i
  | Float f -> json_float f
  | Bool b -> string_of_bool b

let line_of_event ?(time = true) e =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "{\"stage\": \"%s\"" (escape e.stage));
  Buffer.add_string b (Printf.sprintf ", \"seq\": %d" e.seq);
  if time then
    Buffer.add_string b (Printf.sprintf ", \"t_ms\": %s" (json_float e.t_ms));
  Buffer.add_string b (Printf.sprintf ", \"event\": \"%s\"" (escape e.name));
  Buffer.add_string b ", \"attrs\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "\"%s\": %s" (escape k) (value_to_json v)))
    e.attrs;
  Buffer.add_string b "}}";
  Buffer.contents b

let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (line_of_event e);
      Buffer.add_char b '\n')
    (events t);
  Buffer.contents b

let canonical_dump evs =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (line_of_event ~time:false e);
      Buffer.add_char b '\n')
    (deterministic_events evs);
  Buffer.contents b

(* -- JSONL parsing (via the shared Mx_util.Json reader) ------------------- *)

let event_of_line line =
  match Json.parse line with
  | Error m -> Error m
  | Ok (Json.Obj fields) ->
    let str k =
      match List.assoc_opt k fields with
      | Some (Json.Str s) -> Ok s
      | _ -> Error (Printf.sprintf "missing or non-string %S field" k)
    in
    let ( let* ) r f = Result.bind r f in
    let* stage = str "stage" in
    let* name = str "event" in
    let* seq =
      match Option.bind (List.assoc_opt "seq" fields) Json.to_int_opt with
      | Some s -> Ok s
      | None -> Error "missing or non-numeric \"seq\" field"
    in
    let t_ms =
      match List.assoc_opt "t_ms" fields with
      | Some (Json.Num f) -> f
      | _ -> 0.0
    in
    let* attrs =
      match List.assoc_opt "attrs" fields with
      | None -> Ok []
      | Some (Json.Obj kvs) ->
        let rec convert acc = function
          | [] -> Ok (List.rev acc)
          | (k, v) :: rest -> (
            match v with
            | Json.Str s -> convert ((k, Str s) :: acc) rest
            | Json.Bool b -> convert ((k, Bool b) :: acc) rest
            | Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
              convert ((k, Int (int_of_float f)) :: acc) rest
            | Json.Num f -> convert ((k, Float f) :: acc) rest
            | _ -> Error (Printf.sprintf "attr %S is not a scalar" k))
        in
        convert [] kvs
      | Some _ -> Error "\"attrs\" is not an object"
    in
    Ok { stage; seq; name; attrs; t_ms }
  | Ok _ -> Error "event line is not a JSON object"

type loaded = { events : event list; truncated : bool }

let load_jsonl ~path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        (* A parse error on the file's last non-blank line is the
           signature of a run that died mid-write; tolerate exactly
           that (reporting [truncated = true]) and fail on anything
           earlier — a corrupt middle means the file is not a tail-
           truncated log but a damaged one. *)
        let rec go lineno acc =
          match input_line ic with
          | exception End_of_file -> Ok { events = List.rev acc; truncated = false }
          | line ->
            if String.trim line = "" then go (lineno + 1) acc
            else (
              match event_of_line line with
              | Ok e -> go (lineno + 1) (e :: acc)
              | Error m ->
                let rec rest_blank () =
                  match input_line ic with
                  | exception End_of_file -> true
                  | l -> String.trim l = "" && rest_blank ()
                in
                if rest_blank () then
                  Ok { events = List.rev acc; truncated = true }
                else Error (Printf.sprintf "%s: line %d: %s" path lineno m))
        in
        go 1 [])

(* -- Chrome trace exporter ------------------------------------------------ *)

let to_chrome_trace ~(snapshot : Metrics.snapshot) evs =
  let b = Buffer.create 8192 in
  let first = ref true in
  let entry s =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b ("    " ^ s)
  in
  Buffer.add_string b "{\"traceEvents\": [\n";
  let rec span (sp : Metrics.span) =
    entry
      (Printf.sprintf
         "{\"name\": \"%s\", \"cat\": \"span\", \"ph\": \"X\", \"ts\": %.3f, \
          \"dur\": %.3f, \"pid\": 1, \"tid\": 1}"
         (escape sp.Metrics.span_name)
         (sp.Metrics.start *. 1e6)
         (sp.Metrics.seconds *. 1e6));
    List.iter span sp.Metrics.children
  in
  List.iter span snapshot.Metrics.spans;
  List.iter
    (fun e ->
      let args =
        String.concat ", "
          (List.map
             (fun (k, v) ->
               Printf.sprintf "\"%s\": %s" (escape k) (value_to_json v))
             e.attrs)
      in
      entry
        (Printf.sprintf
           "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"i\", \"ts\": %.3f, \
            \"pid\": 1, \"tid\": 1, \"s\": \"t\", \"args\": {%s}}"
           (escape e.name) (escape e.stage) (e.t_ms *. 1e3) args))
    evs;
  Buffer.add_string b "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n";
  Buffer.contents b
