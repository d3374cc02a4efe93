let gates_per_bit = 1.7

let of_bits bits = int_of_float (float_of_int bits *. gates_per_bit)

let cache (c : Params.cache) =
  Params.validate_cache c;
  let data_bits = c.c_size * 8 in
  let lines = c.c_size / c.c_line in
  let sets = lines / c.c_assoc in
  let tag_bits_per_line = 32 - Params.log2i sets - Params.log2i c.c_line in
  (* +2 status bits (valid, dirty) per line; replacement state is
     charged per set by the policy's own accounting (true LRU's
     ways*log2(ways) stamp bits per set equal the historical
     log2(assoc) bits per line, so default costs are unchanged) *)
  let line_meta = tag_bits_per_line + 2 in
  let repl_bits =
    sets * Replacement.state_bits_per_set c.c_policy ~ways:c.c_assoc
  in
  let comparators = c.c_assoc * tag_bits_per_line * 6 in
  let control = 3000 + (c.c_assoc * 500) in
  of_bits (data_bits + (lines * line_meta) + repl_bits) + comparators + control

let sram (s : Params.sram) =
  if s.s_size <= 0 then invalid_arg "Cost_model.sram: non-positive size";
  of_bits (s.s_size * 8) + 1500

let stream_buffer (s : Params.stream_buffer) =
  let data_bits = s.sb_streams * s.sb_depth * s.sb_line * 8 in
  of_bits data_bits + (s.sb_streams * 800) + 2000

let lldma (l : Params.lldma) =
  let data_bits = l.ll_entries * l.ll_elem * 8 in
  of_bits data_bits + 4500

let victim (v : Params.victim) ~line =
  Params.validate_victim v;
  let data_bits = v.v_entries * line * 8 in
  let tag_bits = v.v_entries * 28 in
  of_bits (data_bits + tag_bits) + (v.v_entries * 28 * 6) + 800

let write_buffer (w : Params.write_buffer) =
  Params.validate_write_buffer w;
  (* 16-byte coalescing slots plus address CAM and drain control *)
  of_bits (w.wb_entries * 16 * 8) + (w.wb_entries * 28 * 6) + 600
