type t = {
  p : Params.victim;
  lines : int array; (* -1 = empty *)
  stamps : int array;
  mutable clock : int;
  mutable n_probe : int;
  mutable n_hit : int;
}

let create p =
  Params.validate_victim p;
  {
    p;
    lines = Array.make p.Params.v_entries (-1);
    stamps = Array.make p.Params.v_entries 0;
    clock = 0;
    n_probe = 0;
    n_hit = 0;
  }

let params t = t.p

(* The first slot in [i ..] holding [line], or -1. *)
let rec slot_of (lines : int array) line i =
  if i >= Array.length lines then -1
  else if lines.(i) = line then i
  else slot_of lines line (i + 1)

(* The slot with the lowest stamp, the lowest index on ties. *)
let rec oldest (stamps : int array) i best =
  if i >= Array.length stamps then best
  else oldest stamps (i + 1) (if stamps.(i) < stamps.(best) then i else best)

let probe t ~line =
  t.n_probe <- t.n_probe + 1;
  let i = slot_of t.lines line 0 in
  if i < 0 then false
  else begin
    (* the line returns to the main cache *)
    t.lines.(i) <- -1;
    t.n_hit <- t.n_hit + 1;
    true
  end

let insert t ~line =
  t.clock <- t.clock + 1;
  (* prefer an empty slot, else evict the LRU *)
  let empty = slot_of t.lines (-1) 0 in
  let victim = if empty >= 0 then empty else oldest t.stamps 1 0 in
  t.lines.(victim) <- line;
  t.stamps.(victim) <- t.clock

let hits t = t.n_hit
let probes t = t.n_probe

let reset t =
  Array.fill t.lines 0 (Array.length t.lines) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0;
  t.n_probe <- 0;
  t.n_hit <- 0
