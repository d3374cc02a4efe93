(* How a set finds its victim.  True_lru and Fifo keep each set's lines
   in order in its ways, most recent (resp. newest fill) first, with the
   invalid ways at the tail, so the last way is always the victim.  The
   other policies depend on way placement and keep a Replacement state
   per set. *)
type order = Recency | Fill_order | Per_set of Replacement.t array

type t = {
  p : Params.cache;
  (* p's geometry as read on every lookup: line and set count are
     powers of two, so a line number is [addr lsr line_bits], its set
     [line land set_mask] and its tag [line lsr set_bits] *)
  line_bits : int;
  set_bits : int;
  set_mask : int;
  assoc : int;
  tags : int array; (* sets * assoc; -1 = invalid *)
  dirty : bool array;
  order : order;
}

type result = { hit : bool; fill : bool; writeback : bool; evicted_line : int option }

let create p =
  Params.validate_cache p;
  let sets = p.Params.c_size / p.Params.c_line / p.Params.c_assoc in
  let ways = sets * p.Params.c_assoc in
  {
    p;
    line_bits = Params.log2i p.Params.c_line;
    set_bits = Params.log2i sets;
    set_mask = sets - 1;
    assoc = p.Params.c_assoc;
    tags = Array.make ways (-1);
    dirty = Array.make ways false;
    order =
      (match p.Params.c_policy with
      | Params.True_lru -> Recency
      | Params.Fifo -> Fill_order
      | policy ->
        Per_set
          (Array.init sets (fun _ ->
               Replacement.create policy ~ways:p.Params.c_assoc)));
  }

let params t = t.p

(* Lookup codes: a miss that evicted a valid line returns
   [(line lsl 1) lor dirty], which is non-negative because addresses
   are; the other outcomes take the two negative codes below, both of
   which [evicted] maps to -1. *)
let hit = -1
let cold_fill = -2
let evicted code = code asr 1
let dirty code = code >= 0 && code land 1 = 1

(* Unchecked reads and writes for the lookup below: every index it uses
   lies in its set's [base, stop), and [stop <= sets * assoc], the
   length of [tags] and [dirty], because [set <= set_mask]. *)
let[@inline] ( .%() ) (a : int array) i = Array.unsafe_get a i
let[@inline] ( .%()<- ) (a : int array) i v = Array.unsafe_set a i v
let[@inline] ( .!() ) (a : bool array) i = Array.unsafe_get a i
let[@inline] ( .!()<- ) (a : bool array) i v = Array.unsafe_set a i v

(* Move [way] of the set at [base] to the front of its order, the ways
   before it down one, each dirty bit with its line. *)
let[@inline] promote (tags : int array) (dirty : bool array) ~base ~way =
  let tag = tags.%(way) and d = dirty.!(way) in
  for k = way downto base + 1 do
    tags.%(k) <- tags.%(k - 1);
    dirty.!(k) <- dirty.!(k - 1)
  done;
  tags.%(base) <- tag;
  dirty.!(base) <- d

(* Inlined into [access], so the wrapper costs no extra call. *)
let[@inline] lookup t ~addr ~write =
  (* a negative address would alias: its tag could read as an invalid
     way, and its line would not name it.  The shifts below rely on
     this check too: they equal the divisions only for a non-negative
     address. *)
  if addr < 0 then invalid_arg "Cache.lookup: negative address";
  let line = addr lsr t.line_bits in
  let set = line land t.set_mask in
  let tag = line lsr t.set_bits in
  let base = set * t.assoc in
  let stop = base + t.assoc in
  let tags = t.tags and dirty = t.dirty in
  (* tags are non-negative and unique within a set *)
  let way = ref base in
  while !way < stop && tags.%(!way) <> tag do
    incr way
  done;
  let way = !way in
  if way < stop then begin
    if write then dirty.!(way) <- true;
    (match t.order with
    | Recency -> promote tags dirty ~base ~way
    | Fill_order -> ()
    | Per_set repl -> Replacement.touch repl.(set) ~way:(way - base));
    hit
  end
  else begin
    let victim =
      match t.order with
      | Recency | Fill_order -> stop - 1
      | Per_set repl ->
        (* the lowest-index invalid way; only a full set consults the
           replacement policy *)
        let free = ref base in
        while !free < stop && tags.%(!free) <> -1 do
          incr free
        done;
        if !free < stop then !free else base + Replacement.victim repl.(set)
    in
    let old = tags.%(victim) in
    let wb = old <> -1 && dirty.!(victim) in
    tags.%(victim) <- tag;
    dirty.!(victim) <- write;
    (match t.order with
    | Recency | Fill_order -> promote tags dirty ~base ~way:victim
    | Per_set repl -> Replacement.fill repl.(set) ~way:(victim - base));
    if old = -1 then cold_fill
    else (((old lsl t.set_bits) lor set) lsl 1) lor Bool.to_int wb
  end

let access t ~addr ~write =
  let code = lookup t ~addr ~write in
  if code = hit then
    { hit = true; fill = false; writeback = false; evicted_line = None }
  else
    { hit = false; fill = true; writeback = dirty code;
      evicted_line = (if code = cold_fill then None else Some (evicted code)) }
