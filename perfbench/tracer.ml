(* In-memory spans for the traced run, plus the order statistics the
   report uses.

   A span records its name, its parent (the span open when it started),
   its wall-clock interval and the bytes the OCaml runtime allocated
   inside it.  Spans stay in memory until the benchmark writes them out
   at the end, so recording one costs two clock reads and two allocation
   counter reads. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  start : float;  (** seconds since {!reset} *)
  stop : float;
  alloc_bytes : float;
}

let origin = ref (Unix.gettimeofday ())
let finished : span list ref = ref []
let open_stack : int list ref = ref []
let next_id = ref 0

let reset () =
  origin := Unix.gettimeofday ();
  finished := [];
  open_stack := [];
  next_id := 0

let now () = Unix.gettimeofday () -. !origin

(* [rename] names the span after its result, for calls whose kind is
   only known once they return (an evaluation's cache provenance). *)
let with_span ?rename name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_stack with p :: _ -> p | [] -> -1 in
  open_stack := id :: !open_stack;
  let a0 = Gc.allocated_bytes () in
  let start = now () in
  let close name =
    let stop = now () in
    let alloc_bytes = Gc.allocated_bytes () -. a0 in
    open_stack := List.tl !open_stack;
    finished := { id; name; parent; start; stop; alloc_bytes } :: !finished
  in
  match f () with
  | v ->
    close (match rename with Some r -> r v | None -> name);
    v
  | exception e ->
    close name;
    raise e

let spans () = List.sort (fun a b -> compare a.id b.id) !finished
let last () = List.hd !finished
let duration s = s.stop -. s.start

(* every finished span with this name, in start order *)
let named name = List.filter (fun s -> s.name = name) (spans ())
let total name = List.fold_left (fun acc s -> acc +. duration s) 0.0 (named name)

let alloc_total name =
  List.fold_left (fun acc s -> acc +. s.alloc_bytes) 0.0 (named name)

let roots_total () =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. duration s else acc)
    0.0 !finished

let to_jsonl () =
  let num = Mx_util.Json.number in
  String.concat ""
    (List.map
       (fun s ->
         Printf.sprintf
           "{\"id\": %d, \"name\": \"%s\", \"parent\": %d, \"start_s\": %s, \
            \"dur_s\": %s, \"alloc_bytes\": %s}\n"
           s.id
           (Mx_util.Json.escape s.name)
           s.parent (num s.start) (num (duration s)) (num s.alloc_bytes))
       (spans ()))

(* -- order statistics ------------------------------------------------------ *)

let sorted xs = List.sort Float.compare xs

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest order statistic with at least ten samples above it; with
   ten samples or fewer no such percentile exists and the maximum is
   reported instead. *)
let tail = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    if n > 10 then a.(n - 11) else a.(n - 1)
