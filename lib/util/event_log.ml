(* A bounded ring of structured events behind one mutex.  Emission is
   per-decision (per design, per merge), never per memory access, so a
   coarse lock is fine; the disabled path is a single atomic load.  The
   buffer starts small and grows geometrically up to the capacity, at
   which point it wraps and drops the oldest event.  An attached output
   channel gets each event's line as it is emitted, under the mutex. *)

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
  mutable out : out_channel option;
  mutable keep : bool;  (* events stay resident in the ring *)
  mutable written : int;
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
    out = None;
    keep = true;
    written = 0;
  }

let global = create ()
let set_enabled t b = Atomic.set t.on b
let is_on t = Atomic.get t.on

let reset t =
  Mutex.protect t.mu @@ fun () ->
  t.buf <- Array.make (initial_alloc t.cap) None;
  t.first <- 0;
  t.len <- 0;
  t.n_dropped <- 0;
  t.written <- 0;
  Hashtbl.reset t.seqs;
  t.epoch <- Unix.gettimeofday ()

let set_output t ?(keep = true) out =
  Mutex.protect t.mu (fun () ->
      t.out <- out;
      t.keep <- keep || Option.is_none out)

let written t = Mutex.protect t.mu (fun () -> t.written)

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

(* -- JSONL rendering ------------------------------------------------------ *)

let value_json = function
  | Str s -> Json.Str s
  | Int i -> Json.int i
  | Float f -> Json.Num f
  | Bool b -> Json.Bool b

let attrs_json attrs =
  Json.Obj (List.map (fun (k, v) -> (k, value_json v)) attrs)

let event_json ~time e =
  Json.Obj
    ([ ("stage", Json.Str e.stage); ("seq", Json.int e.seq) ]
    @ (if time then [ ("t_ms", Json.Num e.t_ms) ] else [])
    @ [ ("event", Json.Str e.name); ("attrs", attrs_json e.attrs) ])

(* The one JSONL renderer: the emitter's write-through and every dump. *)
let line_of_event ?(time = true) e = Json.to_string (event_json ~time e)

let jsonl ~time evs =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (line_of_event ~time e);
      Buffer.add_char b '\n')
    evs;
  Buffer.contents b

let emit t ~stage ?seq name attrs =
  if Atomic.get t.on then begin
    let now = Unix.gettimeofday () in
    Mutex.protect t.mu @@ fun () ->
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
    let e = { stage; seq; name; attrs; t_ms = (now -. t.epoch) *. 1000.0 } in
    Option.iter
      (fun oc ->
        output_string oc (line_of_event e);
        output_char oc '\n';
        t.written <- t.written + 1)
      t.out;
    if t.keep then push t e
  end

let events t =
  Mutex.protect t.mu @@ fun () ->
  let alloc = Array.length t.buf in
  List.init t.len (fun i -> Option.get t.buf.((t.first + i) mod alloc))

let length t = Mutex.protect t.mu (fun () -> t.len)
let dropped t = Mutex.protect t.mu (fun () -> t.n_dropped)

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

let to_jsonl t = jsonl ~time:true (events t)

let canonical_dump evs =
  jsonl ~time:false
    (canonical_sort (List.filter (fun e -> not (schedule_dependent e)) evs))

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
  let common = [ ("pid", Json.int 1); ("tid", Json.int 1) ] in
  let rec spans (sp : Metrics.span) =
    Json.Obj
      ([
         ("name", Json.Str sp.Metrics.span_name);
         ("cat", Json.Str "span");
         ("ph", Json.Str "X");
         ("ts", Json.Num (sp.Metrics.start *. 1e6));
         ("dur", Json.Num (sp.Metrics.seconds *. 1e6));
       ]
      @ common)
    :: List.concat_map spans sp.Metrics.children
  in
  let instant e =
    Json.Obj
      ([
         ("name", Json.Str e.name);
         ("cat", Json.Str e.stage);
         ("ph", Json.Str "i");
         ("ts", Json.Num (e.t_ms *. 1e3));
       ]
      @ common
      @ [ ("s", Json.Str "t"); ("args", attrs_json e.attrs) ])
  in
  Json.to_string
    (Json.Obj
       [
         ( "traceEvents",
           Json.Arr
             (List.concat_map spans snapshot.Metrics.spans
             @ List.map instant evs) );
         ("displayTimeUnit", Json.Str "ms");
       ])
  ^ "\n"
