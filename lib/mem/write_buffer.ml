type t = {
  p : Params.write_buffer;
  slots : int array; (* buffered line numbers; -1 = free *)
  mutable last_drain : int; (* access index of the last drain event *)
}

let create p =
  Params.validate_write_buffer p;
  { p; slots = Array.make p.Params.wb_entries (-1); last_drain = 0 }

let params t = t.p

(* The calls below loop over int refs and build no option or closure:
   APEX makes one per store and load of every write-buffer group. *)
let drain t ~now =
  (* retire one slot per wb_drain accesses, oldest first (slot order is a
     good-enough FIFO proxy at this granularity) *)
  let due = (now - t.last_drain) / t.p.Params.wb_drain in
  if due > 0 then begin
    t.last_drain <- t.last_drain + (due * t.p.Params.wb_drain);
    let slots = t.slots in
    let remaining = ref due and i = ref 0 in
    while !remaining > 0 && !i < Array.length slots do
      if slots.(!i) <> -1 then begin
        slots.(!i) <- -1;
        decr remaining
      end;
      incr i
    done
  end

let write t ~now ~line =
  drain t ~now;
  let slots = t.slots in
  let existing = ref (-1) and free = ref (-1) in
  for i = 0 to Array.length slots - 1 do
    let l = slots.(i) in
    if l = line && !existing < 0 then existing := i
    else if l = -1 && !free < 0 then free := i
  done;
  if !existing >= 0 then `Coalesced
  else if !free >= 0 then begin
    slots.(!free) <- line;
    `Absorbed
  end
  else `Stall

let read_forward t ~now ~line =
  drain t ~now;
  let slots = t.slots in
  let i = ref 0 in
  while !i < Array.length slots && slots.(!i) <> line do
    incr i
  done;
  !i < Array.length slots

let occupancy t ~now =
  drain t ~now;
  Array.fold_left (fun acc l -> if l = -1 then acc else acc + 1) 0 t.slots
