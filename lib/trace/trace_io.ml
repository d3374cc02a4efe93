exception Parse_error of { line : int; message : string }

let fail ~line message = raise (Parse_error { line; message })

(* Binary-codec errors carry no line numbers; surface them on line 0
   with the codec's message. *)
let with_corrupt f =
  try f () with Trace_codec.Corrupt message -> fail ~line:0 message

let pattern_to_tag = function
  | Region.Stream -> "stream"
  | Region.Self_indirect -> "self-indirect"
  | Region.Indexed -> "indexed"
  | Region.Random_access -> "random"
  | Region.Mixed -> "mixed"

let pattern_of_tag ~line = function
  | "stream" -> Region.Stream
  | "self-indirect" -> Region.Self_indirect
  | "indexed" -> Region.Indexed
  | "random" -> Region.Random_access
  | "mixed" -> Region.Mixed
  | tag -> fail ~line (Printf.sprintf "unknown pattern %S" tag)

(* -- text format (v1) --------------------------------------------------- *)

let to_string (w : Workload.t) =
  let buf = Buffer.create (Trace.length w.Workload.trace * 16) in
  Buffer.add_string buf "# memorex-trace v1\n";
  Buffer.add_string buf (Printf.sprintf "workload %s\n" w.Workload.name);
  Buffer.add_string buf (Printf.sprintf "cpu_ops %d\n" w.Workload.cpu_ops);
  List.iter
    (fun (r : Region.t) ->
      Buffer.add_string buf
        (Printf.sprintf "region %d %s 0x%x %d %d %s\n" r.Region.id
           r.Region.name r.Region.base r.Region.size r.Region.elem_size
           (pattern_to_tag r.Region.hint)))
    w.Workload.regions;
  Buffer.add_string buf
    (Printf.sprintf "trace %d\n" (Trace.length w.Workload.trace));
  Trace.iter_packed w.Workload.trace ~f:(fun ~addr ~size ~kind ~region ->
      Buffer.add_string buf
        (Printf.sprintf "%c 0x%x %d %d\n"
           (match kind with Access.Read -> 'R' | Access.Write -> 'W')
           addr size region));
  Buffer.contents buf

let of_text_string s =
  let lines = String.split_on_char '\n' s in
  let name = ref None and cpu_ops = ref 0 in
  (* regions keep their declaration line so post-parse validation can
     point at the offending line rather than "line 0" *)
  let regions = ref [] in
  let trace = Trace.create () in
  let expected = ref (-1) in
  let trace_header_line = ref 0 in
  let lineno = ref 0 in
  let parse_int ~line v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail ~line (Printf.sprintf "expected an integer, got %S" v)
  in
  List.iter
    (fun raw ->
      incr lineno;
      let line = !lineno in
      (* trim also strips the '\r' of CRLF input, keeping both parsing
         and reported line numbers identical to the LF form *)
      let l = String.trim raw in
      if l = "" || l.[0] = '#' then ()
      else
        match String.split_on_char ' ' l with
        | [ "workload"; n ] -> name := Some n
        | [ "cpu_ops"; n ] -> cpu_ops := parse_int ~line n
        | [ "region"; id; rname; base; size; elem; hint ] ->
          regions :=
            ( line,
              {
                Region.id = parse_int ~line id;
                name = rname;
                base = parse_int ~line base;
                size = parse_int ~line size;
                elem_size = parse_int ~line elem;
                hint = pattern_of_tag ~line hint;
              } )
            :: !regions
        | [ "trace"; n ] ->
          trace_header_line := line;
          expected := parse_int ~line n
        | [ kind; addr; size; region ] when kind = "R" || kind = "W" ->
          let a = parse_int ~line addr in
          if a < 0 then fail ~line (Printf.sprintf "negative address %S" addr);
          Trace.add trace ~addr:a
            ~size:(parse_int ~line size)
            ~kind:(if kind = "R" then Access.Read else Access.Write)
            ~region:(parse_int ~line region)
        | _ -> fail ~line (Printf.sprintf "unrecognised line %S" l))
    lines;
  let name =
    match !name with
    | Some n -> n
    | None -> fail ~line:1 "missing 'workload' header"
  in
  if !expected >= 0 && Trace.length trace <> !expected then
    fail ~line:!trace_header_line
      (Printf.sprintf "trace length mismatch: header says %d, found %d"
         !expected (Trace.length trace));
  let regions =
    List.sort
      (fun (_, (a : Region.t)) (_, b) -> compare a.Region.id b.Region.id)
      !regions
  in
  List.iteri
    (fun i (line, (r : Region.t)) ->
      if r.Region.id <> i then
        fail ~line (Printf.sprintf "region ids not contiguous at %d" i))
    regions;
  { Workload.name; regions = List.map snd regions; trace; cpu_ops = !cpu_ops }

(* -- binary format (v2) ------------------------------------------------- *)

(* Slots of per-region delta state the codec needs: enough for the
   region table and for any region id the trace actually carries
   (Trace.add does not force ids into the table). *)
let slots_for (w : Workload.t) =
  let n = Trace.length w.Workload.trace in
  let _, metas = Trace.backing w.Workload.trace in
  let slots = ref (List.length w.Workload.regions) in
  for i = 0 to n - 1 do
    let r = metas.(i) lsr 3 in
    if r >= !slots then slots := r + 1
  done;
  !slots

let to_binary_string ?(chunk_cap = Trace_codec.default_chunk_cap)
    (w : Workload.t) =
  if chunk_cap <= 0 then
    invalid_arg "Trace_io.to_binary_string: non-positive chunk capacity";
  let n = Trace.length w.Workload.trace in
  let addrs, metas = Trace.backing w.Workload.trace in
  let header =
    {
      Trace_codec.h_name = w.Workload.name;
      h_cpu_ops = w.Workload.cpu_ops;
      h_regions = w.Workload.regions;
      h_slots = slots_for w;
      h_accesses = n;
      h_chunk_cap = chunk_cap;
    }
  in
  let buf = Buffer.create (65536 + (n * 2)) in
  Trace_codec.encode_header buf header;
  let bases = Trace_codec.bases_of_header header in
  let n_chunks = (n + chunk_cap - 1) / chunk_cap in
  let f_lens = Array.make n_chunks 0 and f_counts = Array.make n_chunks 0 in
  for i = 0 to n_chunks - 1 do
    let pos = i * chunk_cap in
    let len = min chunk_cap (n - pos) in
    let before = Buffer.length buf in
    Trace_codec.encode_chunk buf ~bases ~addrs ~metas ~pos ~len;
    f_lens.(i) <- Buffer.length buf - before;
    f_counts.(i) <- len
  done;
  let footer_offset = Buffer.length buf in
  Trace_codec.encode_footer buf { Trace_codec.f_lens; f_counts };
  Trace_codec.encode_trailer buf ~footer_offset;
  Buffer.contents buf

(* Locate header end, footer and per-chunk offsets of an encoded binary
   trace.  Shared by whole-string decode and the file-backed stream;
   every structural inconsistency is a [Trace_codec.Corrupt]. *)
let binary_layout ~total_len ~data_start (footer : Trace_codec.footer)
    ~footer_offset ~accesses ~chunk_cap =
  let n_chunks = Array.length footer.Trace_codec.f_lens in
  if
    footer_offset < data_start
    || footer_offset > total_len - Trace_codec.trailer_bytes
  then raise (Trace_codec.Corrupt "footer offset out of range");
  let offs = Array.make (n_chunks + 1) data_start in
  let total = ref 0 in
  for i = 0 to n_chunks - 1 do
    offs.(i + 1) <- offs.(i) + footer.Trace_codec.f_lens.(i);
    let c = footer.Trace_codec.f_counts.(i) in
    if c < 0 || c > chunk_cap then
      raise (Trace_codec.Corrupt "chunk access count exceeds the chunk capacity");
    total := !total + c
  done;
  if offs.(n_chunks) <> footer_offset then
    raise (Trace_codec.Corrupt "chunk byte lengths do not reach the footer");
  if !total <> accesses then
    raise
      (Trace_codec.Corrupt
         (Printf.sprintf "chunk counts sum to %d, header says %d accesses"
            !total accesses));
  offs

let decode_one_chunk ~bases ~(footer : Trace_codec.footer) ~chunk_data i =
  let count = footer.Trace_codec.f_counts.(i) in
  let a = Array.make (max 1 count) 0 and m = Array.make (max 1 count) 0 in
  let cr = Trace_codec.reader_of_string chunk_data in
  Trace_codec.decode_chunk cr ~bases ~count ~into_addrs:a ~into_metas:m;
  if !(cr.Trace_codec.consumed) <> footer.Trace_codec.f_lens.(i) then
    raise
      (Trace_codec.Corrupt
         (Printf.sprintf "chunk %d decoded to a different byte length" i));
  (a, m, count)

let of_binary_string s =
  with_corrupt (fun () ->
      let total_len = String.length s in
      let r = Trace_codec.reader_of_string s in
      Trace_codec.check_magic r;
      let h = Trace_codec.decode_header r in
      let data_start = !(r.Trace_codec.consumed) in
      if total_len < data_start + Trace_codec.trailer_bytes then
        raise (Trace_codec.Corrupt "truncated binary trace (no trailer)");
      let footer_offset =
        Trace_codec.decode_trailer
          (String.sub s
             (total_len - Trace_codec.trailer_bytes)
             Trace_codec.trailer_bytes)
      in
      if footer_offset > total_len - Trace_codec.trailer_bytes then
        raise (Trace_codec.Corrupt "footer offset out of range");
      let footer =
        Trace_codec.decode_footer
          (Trace_codec.reader_of_string ~pos:footer_offset s)
      in
      let offs =
        binary_layout ~total_len ~data_start footer ~footer_offset
          ~accesses:h.Trace_codec.h_accesses
          ~chunk_cap:h.Trace_codec.h_chunk_cap
      in
      let bases = Trace_codec.bases_of_header h in
      let trace =
        Trace.create ~capacity:(max 16 h.Trace_codec.h_accesses) ()
      in
      Array.iteri
        (fun i len ->
          let chunk_data = String.sub s offs.(i) len in
          let a, m, count = decode_one_chunk ~bases ~footer ~chunk_data i in
          for k = 0 to count - 1 do
            Trace.add_packed trace ~addr:a.(k) ~meta:m.(k)
          done)
        footer.Trace_codec.f_lens;
      {
        Workload.name = h.Trace_codec.h_name;
        regions = h.Trace_codec.h_regions;
        trace;
        cpu_ops = h.Trace_codec.h_cpu_ops;
      })

let is_binary s =
  String.length s >= String.length Trace_codec.magic
  && String.sub s 0 (String.length Trace_codec.magic) = Trace_codec.magic

let of_string s = if is_binary s then of_binary_string s else of_text_string s

(* -- files -------------------------------------------------------------- *)

type format = Text | Binary

let save ?(format = Text) ?chunk_cap w ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      match format with
      | Text -> output_string oc (to_string w)
      | Binary -> output_string oc (to_binary_string ?chunk_cap w))

let load ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))

let open_stream ~path =
  let ic = open_in_bin path in
  let probe =
    let n = min (in_channel_length ic) (String.length Trace_codec.magic) in
    really_input_string ic n
  in
  if not (is_binary probe) then begin
    (* text (or empty) file: no random access to give — materialise and
       wrap, so callers get one code path for both formats *)
    close_in ic;
    let w = load ~path in
    Workload.streamed ~name:w.Workload.name ~regions:w.Workload.regions
      ~cpu_ops:w.Workload.cpu_ops
      (Trace_stream.of_trace w.Workload.trace)
  end
  else
    match
      with_corrupt (fun () ->
          seek_in ic 0;
          let r = Trace_codec.reader_of_channel ic in
          Trace_codec.check_magic r;
          let h = Trace_codec.decode_header r in
          let data_start = !(r.Trace_codec.consumed) in
          let total_len = in_channel_length ic in
          if total_len < data_start + Trace_codec.trailer_bytes then
            raise (Trace_codec.Corrupt "truncated binary trace (no trailer)");
          seek_in ic (total_len - Trace_codec.trailer_bytes);
          let footer_offset =
            Trace_codec.decode_trailer
              (really_input_string ic Trace_codec.trailer_bytes)
          in
          if footer_offset > total_len - Trace_codec.trailer_bytes then
            raise (Trace_codec.Corrupt "footer offset out of range");
          seek_in ic footer_offset;
          let fr = Trace_codec.reader_of_channel ic in
          let footer = Trace_codec.decode_footer fr in
          let footer_bytes = !(fr.Trace_codec.consumed) in
          let offs =
            binary_layout ~total_len ~data_start footer ~footer_offset
              ~accesses:h.Trace_codec.h_accesses
              ~chunk_cap:h.Trace_codec.h_chunk_cap
          in
          (h, footer, footer_bytes, offs, data_start))
    with
    | exception e ->
      close_in_noerr ic;
      raise e
    | h, footer, footer_bytes, offs, data_start ->
      let bases = Trace_codec.bases_of_header h in
      let n_chunks = Array.length footer.Trace_codec.f_lens in
      let starts = Array.make (n_chunks + 1) 0 in
      for i = 0 to n_chunks - 1 do
        starts.(i + 1) <- starts.(i) + footer.Trace_codec.f_counts.(i)
      done;
      let fetch i =
        with_corrupt (fun () ->
            seek_in ic offs.(i);
            let chunk_data =
              try really_input_string ic footer.Trace_codec.f_lens.(i)
              with End_of_file ->
                raise (Trace_codec.Corrupt "truncated binary trace chunk")
            in
            let a, m, count = decode_one_chunk ~bases ~footer ~chunk_data i in
            {
              Trace_stream.c_first = starts.(i);
              c_len = count;
              c_off = 0;
              c_addrs = a;
              c_metas = m;
            })
      in
      let stream =
        Trace_stream.make ~length:h.Trace_codec.h_accesses
          ~chunk_cap:h.Trace_codec.h_chunk_cap
          ~counts:footer.Trace_codec.f_counts ~fetch
          ~chunk_bytes:(fun i -> footer.Trace_codec.f_lens.(i))
          ~file_backed:true
          ~close:(fun () -> close_in_noerr ic)
          ()
      in
      Trace_stream.account_raw_read stream
        (data_start + footer_bytes + Trace_codec.trailer_bytes);
      Workload.streamed ~name:h.Trace_codec.h_name
        ~regions:h.Trace_codec.h_regions ~cpu_ops:h.Trace_codec.h_cpu_ops
        stream
