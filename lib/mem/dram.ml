type t = {
  p : Params.dram;
  open_rows : int array; (* per bank; -1 = precharged *)
}

let create p =
  Params.validate_dram p;
  { p; open_rows = Array.make p.Params.d_banks (-1) }

let params t = t.p

let access t ~addr =
  let row = addr / t.p.Params.d_row in
  let bank = row land (t.p.Params.d_banks - 1) in
  if t.open_rows.(bank) = row then t.p.Params.d_cas
  else begin
    let was_open = t.open_rows.(bank) <> -1 in
    t.open_rows.(bank) <- row;
    (if was_open then t.p.Params.d_rp else 0) + t.p.Params.d_rcd + t.p.Params.d_cas
  end
