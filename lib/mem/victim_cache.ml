type t = {
  p : Params.victim;
  lines : int array; (* -1 = empty *)
  stamps : int array; (* insertion time of each full slot *)
  mutable clock : int;
}

let create p =
  Params.validate_victim p;
  {
    p;
    lines = Array.make p.Params.v_entries (-1);
    stamps = Array.make p.Params.v_entries 0;
    clock = 0;
  }

let params t = t.p

let recover t ~evicted ~line =
  let lines = t.lines and stamps = t.stamps in
  (* one scan: the first empty slot, the oldest full slot (the lowest
     index on ties) and the slot holding [line] *)
  let empty = ref (-1) and oldest = ref 0 and found = ref (-1) in
  for i = 0 to Array.length lines - 1 do
    let l = lines.(i) in
    if l < 0 then begin
      if !empty < 0 then empty := i
    end
    else begin
      if l = line then found := i;
      if stamps.(i) < stamps.(!oldest) then oldest := i
    end
  done;
  if evicted >= 0 then begin
    (* an empty slot if any, else displace the oldest insertion; [oldest]
       is only read when every slot is full *)
    let slot = if !empty >= 0 then !empty else !oldest in
    t.clock <- t.clock + 1;
    lines.(slot) <- evicted;
    stamps.(slot) <- t.clock;
    if slot = !found then found := -1
  end;
  if !found < 0 then false
  else begin
    (* the line returns to the main cache *)
    lines.(!found) <- -1;
    true
  end
