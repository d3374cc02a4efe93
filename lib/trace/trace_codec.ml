(* Byte-level codec of the memorex binary trace format (v2).

   File layout:

     "MXTB" | u8 version=2
     header:  varint |name| name, varint cpu_ops,
              varint n_regions,
              per region: varint id, varint |rname| rname, varint base,
                          varint size, varint elem_size, u8 hint,
              varint slots, varint accesses, varint chunk_cap
     chunks:  n_chunks encoded chunks, back to back
     footer:  varint n_chunks, per chunk: varint byte_len, varint count
     trailer: u64-LE footer_offset, "MXTE"           (12 bytes, fixed)

   Each chunk holds up to [chunk_cap] accesses and is decodable on its
   own: the per-region delta state resets to the region bases at every
   chunk boundary, which is what lets {!Trace_stream} seek to an
   arbitrary chunk without replaying its predecessors.  One record is

     varint meta2, zigzag-varint delta [, varint run]

   with [meta2 = region lsl 4 lor run_bit lsl 3 lor size_code lsl 1
   lor kind].  [delta] is relative to the previous address *of the same
   region* (initially the region base), so strided streams cost one or
   two bytes per access even when regions interleave.  When [run_bit]
   is set the (meta, delta) pair repeats [run] more times, each repeat
   advancing the address by [delta] again — a run-length escape that
   collapses pure streaming spans to a few bytes per chunk. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let magic = "MXTB"
let trailer_magic = "MXTE"
let version = 2
let trailer_bytes = 12
let default_chunk_cap = 1024

(* -- varints ----------------------------------------------------------- *)

let write_varint buf n =
  if n < 0 then invalid_arg "Trace_codec.write_varint: negative";
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.chr (!n land 0x7f lor 0x80));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

(* zig-zag: small magnitudes of either sign become small varints *)
let write_zigzag buf n = write_varint buf ((n lsl 1) lxor (n asr 62))

type reader = {
  next_byte : unit -> int;  (* @raise Corrupt at end of input *)
  consumed : int ref;  (* bytes read so far *)
}

let reader_of_string ?(pos = 0) s =
  let i = ref pos and consumed = ref 0 in
  let next_byte () =
    if !i >= String.length s then corrupt "truncated input at byte %d" !i;
    let b = Char.code (String.unsafe_get s !i) in
    incr i;
    incr consumed;
    b
  in
  { next_byte; consumed }

let reader_of_channel ic =
  let consumed = ref 0 in
  let next_byte () =
    match input_byte ic with
    | b ->
      incr consumed;
      b
    | exception End_of_file -> corrupt "truncated input (unexpected end of file)"
  in
  { next_byte; consumed }

let read_varint r =
  let rec go shift acc =
    if shift > 62 then corrupt "varint overflows the native int range";
    let b = r.next_byte () in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_zigzag r =
  let z = read_varint r in
  (z lsr 1) lxor (- (z land 1))

(* -- header ------------------------------------------------------------ *)

type header = {
  h_name : string;
  h_cpu_ops : int;
  h_regions : Region.t list;  (* sorted by id, ids contiguous from 0 *)
  h_slots : int;  (* delta-state slots: 1 + the largest region id seen *)
  h_accesses : int;
  h_chunk_cap : int;
}

let hint_code = function
  | Region.Stream -> 0
  | Region.Self_indirect -> 1
  | Region.Indexed -> 2
  | Region.Random_access -> 3
  | Region.Mixed -> 4

let hint_of_code = function
  | 0 -> Region.Stream
  | 1 -> Region.Self_indirect
  | 2 -> Region.Indexed
  | 3 -> Region.Random_access
  | 4 -> Region.Mixed
  | c -> corrupt "unknown region pattern code %d" c

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

let read_string r =
  let n = read_varint r in
  if n > 0xFFFF then corrupt "implausible string length %d" n;
  String.init n (fun _ -> Char.chr (r.next_byte ()))

let encode_header buf (h : header) =
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  write_string buf h.h_name;
  write_varint buf h.h_cpu_ops;
  write_varint buf (List.length h.h_regions);
  List.iter
    (fun (r : Region.t) ->
      write_varint buf r.Region.id;
      write_string buf r.Region.name;
      write_varint buf r.Region.base;
      write_varint buf r.Region.size;
      write_varint buf r.Region.elem_size;
      Buffer.add_char buf (Char.chr (hint_code r.Region.hint)))
    h.h_regions;
  write_varint buf h.h_slots;
  write_varint buf h.h_accesses;
  write_varint buf h.h_chunk_cap

(* [r] must be positioned right after the 5 magic/version bytes. *)
let decode_header r =
  let h_name = read_string r in
  let h_cpu_ops = read_varint r in
  let n_regions = read_varint r in
  if n_regions > 0xFFFF then corrupt "implausible region count %d" n_regions;
  let h_regions =
    List.init n_regions (fun i ->
        let id = read_varint r in
        if id <> i then corrupt "region ids not contiguous at %d" i;
        let name = read_string r in
        let base = read_varint r in
        let size = read_varint r in
        let elem_size = read_varint r in
        let hint = hint_of_code (r.next_byte ()) in
        { Region.id; name; base; size; elem_size; hint })
  in
  let h_slots = read_varint r in
  if h_slots < n_regions then corrupt "delta slots %d < region count" h_slots;
  let h_accesses = read_varint r in
  let h_chunk_cap = read_varint r in
  if h_chunk_cap <= 0 then corrupt "non-positive chunk capacity";
  { h_name; h_cpu_ops; h_regions; h_slots; h_accesses; h_chunk_cap }

let check_magic r =
  String.iter
    (fun c -> if r.next_byte () <> Char.code c then corrupt "bad magic (not a binary trace)")
    magic;
  let v = r.next_byte () in
  if v <> version then corrupt "unsupported binary trace version %d" v

(* The per-region initial delta state: the region's base address, so
   the first access of a region in every chunk encodes as a small
   offset into the region. *)
let bases_of_header (h : header) =
  let bases = Array.make (max 1 h.h_slots) 0 in
  List.iter
    (fun (r : Region.t) ->
      if r.Region.id < Array.length bases then
        bases.(r.Region.id) <- r.Region.base)
    h.h_regions;
  bases

(* -- chunks ------------------------------------------------------------ *)

let encode_chunk buf ~bases ~addrs ~metas ~pos ~len =
  let last = Array.copy bases in
  let stop = pos + len in
  let i = ref pos in
  while !i < stop do
    let addr = addrs.(!i) and meta = metas.(!i) in
    let r = meta lsr 3 in
    if r >= Array.length last then
      invalid_arg "Trace_codec.encode_chunk: region id out of range";
    let delta = addr - last.(r) in
    (* run-length lookahead: same meta, constant stride [delta] *)
    let j = ref (!i + 1) and prev = ref addr in
    while !j < stop && metas.(!j) = meta && addrs.(!j) - !prev = delta do
      prev := addrs.(!j);
      incr j
    done;
    let run = !j - !i - 1 in
    let meta2 =
      (r lsl 4) lor ((if run > 0 then 1 else 0) lsl 3) lor (meta land 7)
    in
    write_varint buf meta2;
    write_zigzag buf delta;
    if run > 0 then write_varint buf run;
    last.(r) <- !prev;
    i := !j
  done

(* Decode [count] accesses into [into_addrs]/[into_metas] starting at 0.
   @raise Corrupt on malformed or truncated records. *)
let decode_chunk r ~bases ~count ~into_addrs ~into_metas =
  let last = Array.copy bases in
  let k = ref 0 in
  while !k < count do
    let meta2 = read_varint r in
    let reg = meta2 lsr 4 in
    if reg >= Array.length last then
      corrupt "region id %d out of range in chunk record" reg;
    let meta = (reg lsl 3) lor (meta2 land 7) in
    let delta = read_zigzag r in
    let addr = ref (last.(reg) + delta) in
    if !addr < 0 then corrupt "negative address %d in chunk record" !addr;
    into_addrs.(!k) <- !addr;
    into_metas.(!k) <- meta;
    incr k;
    if (meta2 lsr 3) land 1 = 1 then begin
      let run = read_varint r in
      if !k + run > count then
        corrupt "run of %d overflows the chunk's %d accesses" run count;
      for _ = 1 to run do
        addr := !addr + delta;
        if !addr < 0 then corrupt "negative address %d in chunk record" !addr;
        into_addrs.(!k) <- !addr;
        into_metas.(!k) <- meta;
        incr k
      done
    end;
    last.(reg) <- !addr
  done

(* -- footer and trailer ------------------------------------------------- *)

type footer = {
  f_lens : int array;  (* encoded byte length of each chunk *)
  f_counts : int array;  (* access count of each chunk *)
}

let encode_footer buf (f : footer) =
  let n = Array.length f.f_lens in
  write_varint buf n;
  for i = 0 to n - 1 do
    write_varint buf f.f_lens.(i);
    write_varint buf f.f_counts.(i)
  done

let decode_footer r =
  let n = read_varint r in
  if n > 0x7FFFFFF then corrupt "implausible chunk count %d" n;
  let f_lens = Array.make n 0 and f_counts = Array.make n 0 in
  for i = 0 to n - 1 do
    f_lens.(i) <- read_varint r;
    f_counts.(i) <- read_varint r
  done;
  { f_lens; f_counts }

let encode_trailer buf ~footer_offset =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((footer_offset lsr (8 * i)) land 0xff))
  done;
  Buffer.add_string buf trailer_magic

(* [trailer] is the last [trailer_bytes] of the file. *)
let decode_trailer trailer =
  if String.length trailer <> trailer_bytes then
    corrupt "truncated trailer (%d bytes)" (String.length trailer);
  if String.sub trailer 8 4 <> trailer_magic then
    corrupt "bad trailer magic (truncated or corrupt binary trace)";
  let off = ref 0 in
  for i = 7 downto 0 do
    off := (!off lsl 8) lor Char.code trailer.[i]
  done;
  if !off < 0 then corrupt "negative footer offset";
  !off
