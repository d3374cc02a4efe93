(* The buffer's lines in insertion order, in a ring: [count] lines from
   slot [head] on, oldest first. *)
type t = {
  p : Params.victim;
  ring : int array;
  mutable head : int;
  mutable count : int;
}

let create p =
  Params.validate_victim p;
  { p; ring = Array.make p.Params.v_entries 0; head = 0; count = 0 }

let params t = t.p

(* the slot after [s] in a ring of [n] *)
let next n s = if s + 1 = n then 0 else s + 1

let recover t ~evicted ~line =
  let ring = t.ring in
  let n = Array.length ring in
  if evicted >= 0 then begin
    if t.count = n then begin
      (* displace the oldest insertion: its slot holds the newest *)
      let h = t.head in
      ring.(h) <- evicted;
      t.head <- next n h
    end
    else begin
      let tail = t.head + t.count in
      ring.(if tail >= n then tail - n else tail) <- evicted;
      t.count <- t.count + 1
    end
  end;
  let i = ref 0 and s = ref t.head in
  while !i < t.count && ring.(!s) <> line do
    incr i;
    s := next n !s
  done;
  if !i = t.count then false
  else begin
    (* the line returns to the main cache, and each newer line moves
       back one slot, so the ring stays in insertion order *)
    for _ = !i to t.count - 2 do
      let nx = next n !s in
      ring.(!s) <- ring.(nx);
      s := nx
    done;
    t.count <- t.count - 1;
    true
  end
