type t = {
  p : Params.write_buffer;
  slots : int array; (* buffered line numbers; -1 = free *)
  mutable last_drain : int; (* access index of the last drain event *)
}

let create p =
  Params.validate_write_buffer p;
  { p; slots = Array.make p.Params.wb_entries (-1); last_drain = 0 }

let params t = t.p

let drain t ~now =
  (* retire one slot per wb_drain accesses, oldest first (slot order is a
     good-enough FIFO proxy at this granularity) *)
  let due = (now - t.last_drain) / t.p.Params.wb_drain in
  if due > 0 then begin
    t.last_drain <- t.last_drain + (due * t.p.Params.wb_drain);
    let remaining = ref due in
    Array.iteri
      (fun i l ->
        if !remaining > 0 && l <> -1 then begin
          t.slots.(i) <- -1;
          decr remaining
        end)
      t.slots
  end

let write t ~now ~line =
  drain t ~now;
  let existing = ref None and free = ref None in
  Array.iteri
    (fun i l ->
      if l = line && !existing = None then existing := Some i
      else if l = -1 && !free = None then free := Some i)
    t.slots;
  match (!existing, !free) with
  | Some _, _ -> `Coalesced
  | None, Some i ->
    t.slots.(i) <- line;
    `Absorbed
  | None, None -> `Stall

let read_forward t ~now ~line =
  drain t ~now;
  Array.exists (fun l -> l = line) t.slots

let occupancy t ~now =
  drain t ~now;
  Array.fold_left (fun acc l -> if l = -1 then acc else acc + 1) 0 t.slots
