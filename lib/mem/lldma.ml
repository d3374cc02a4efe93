type t = {
  p : Params.lldma;
  mutable last_now : int; (* -1 before the first access *)
  mutable chasing : bool;
}

type result = { hit : bool; fetched_elems : int }

let create p =
  if p.Params.ll_entries <= 0 || p.Params.ll_elem <= 0 || p.Params.ll_max_gap <= 0
  then invalid_arg "Lldma.create: non-positive geometry";
  { p; last_now = -1; chasing = false }

let params t = t.p

let access t ~now ~write =
  if now < t.last_now then invalid_arg "Lldma.access: time went backwards";
  let gap = if t.last_now < 0 then max_int else now - t.last_now in
  t.last_now <- now;
  if gap <= t.p.Params.ll_max_gap && t.chasing then begin
    (* chase continues: the DMA already holds this element and fetches
       the next one behind the scenes *)
    { hit = true; fetched_elems = 1 }
  end
  else begin
    t.chasing <- true;
    (* chase (re)start: fetch the head element; writes establish a new
       construction burst which the buffer absorbs *)
    { hit = false; fetched_elems = (if write then 0 else 1) }
  end
