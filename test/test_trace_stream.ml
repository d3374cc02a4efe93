(* Binary trace format, chunked streaming, and the streaming simulation
   path. *)

module Access = Mx_trace.Access
module Trace = Mx_trace.Trace
module Trace_io = Mx_trace.Trace_io
module Trace_codec = Mx_trace.Trace_codec
module Trace_stream = Mx_trace.Trace_stream
module Workload = Mx_trace.Workload
module Cycle_sim = Mx_sim.Cycle_sim
module Sim_result = Mx_sim.Sim_result

let small_workload () =
  let w = Helpers.mixed_workload () in
  (* keep the trace small but multi-chunk at the test chunk size *)
  w

let with_tmp f =
  let path = Filename.temp_file "conex_test_stream" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* -- binary round-trip ------------------------------------------------- *)

let test_binary_roundtrip () =
  let w = small_workload () in
  let s = Trace_io.to_binary_string ~chunk_cap:64 w in
  let w2 = Trace_io.of_binary_string s in
  Helpers.check_true "fingerprint preserved"
    (Workload.fingerprint w2 = Workload.fingerprint w);
  Helpers.check_true "regions preserved"
    (w2.Workload.regions = w.Workload.regions);
  Helpers.check_true "binary much smaller than text"
    (String.length s * 4 < String.length (Trace_io.to_string w))

let test_binary_save_load_autodetect () =
  let w = small_workload () in
  with_tmp (fun path ->
      Trace_io.save ~format:Trace_io.Binary w ~path;
      let w2 = Trace_io.load ~path in
      Helpers.check_true "auto-detected binary load"
        (Workload.fingerprint w2 = Workload.fingerprint w))

let test_runs_compress () =
  (* a pure strided stream must collapse to a few bytes per chunk *)
  let t = Trace.create () in
  for i = 0 to 4095 do
    Trace.add t ~addr:(0x1000 + (i * 4)) ~size:4 ~kind:Access.Read ~region:0
  done;
  let w =
    {
      Workload.name = "runs";
      regions =
        [
          {
            Mx_trace.Region.id = 0;
            name = "s";
            base = 0x1000;
            size = 16384;
            elem_size = 4;
            hint = Mx_trace.Region.Stream;
          };
        ];
      trace = t;
      cpu_ops = 0;
    }
  in
  let s = Trace_io.to_binary_string w in
  Helpers.check_true "run-length collapses strided streams"
    (String.length s < 4096 / 8);
  Helpers.check_true "and still round-trips"
    (Workload.fingerprint (Trace_io.of_binary_string s)
    = Workload.fingerprint w)

(* -- truncation and corruption ----------------------------------------- *)

let test_truncated_binary_rejected () =
  let w = small_workload () in
  let s = Trace_io.to_binary_string w in
  List.iter
    (fun cut ->
      let t = String.sub s 0 cut in
      match Trace_io.of_binary_string t with
      | _ -> Alcotest.failf "truncation to %d bytes parsed" cut
      | exception Trace_io.Parse_error _ -> ()
      | exception e ->
        Alcotest.failf "truncation to %d bytes leaked %s" cut
          (Printexc.to_string e))
    [ 2; 5; 40; String.length s / 2; String.length s - 1 ]

let test_truncated_binary_file_rejected () =
  let w = small_workload () in
  let s = Trace_io.to_binary_string w in
  with_tmp (fun path ->
      let oc = open_out_bin path in
      output_string oc (String.sub s 0 (String.length s - 7));
      close_out oc;
      (match Trace_io.load ~path with
      | _ -> Alcotest.fail "truncated file loaded"
      | exception Trace_io.Parse_error _ -> ()
      | exception e ->
        Alcotest.failf "truncated file leaked %s" (Printexc.to_string e));
      match Trace_io.open_stream ~path with
      | _ -> Alcotest.fail "truncated file opened as a stream"
      | exception Trace_io.Parse_error _ -> ()
      | exception e ->
        Alcotest.failf "truncated open_stream leaked %s"
          (Printexc.to_string e))

(* -- text parse errors: line numbers ------------------------------------ *)

let text_lines =
  [
    "# memorex-trace v1";
    "workload w";
    "cpu_ops 3";
    "region 0 a 0x1000 64 4 stream";
    "trace 2";
    "R 0x1000 4 0";
    "W 0x1004 4 0";
  ]

let parse_error_line s =
  match Trace_io.of_string s with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Trace_io.Parse_error { line; _ } -> line

let test_crlf_line_numbers () =
  (* corrupt line 6; the reported line must not shift under CRLF *)
  let broken = List.mapi (fun i l -> if i = 5 then "R zap 4 0" else l) text_lines in
  let lf = String.concat "\n" broken
  and crlf = String.concat "\r\n" broken in
  Helpers.check_int "LF line" 6 (parse_error_line lf);
  Helpers.check_int "CRLF line" 6 (parse_error_line crlf);
  (* and CRLF input with correct content parses like LF *)
  let good_crlf = String.concat "\r\n" text_lines in
  Helpers.check_true "CRLF parses"
    (Workload.fingerprint (Trace_io.of_string good_crlf)
    = Workload.fingerprint (Trace_io.of_string (String.concat "\n" text_lines)))

let test_length_mismatch_at_trace_header () =
  let broken =
    List.filter (fun l -> l <> "W 0x1004 4 0") text_lines
    (* drop one access; header still says 2 *)
  in
  (* trailing blank lines must not change the reported line *)
  List.iter
    (fun suffix ->
      let s = String.concat "\n" broken ^ suffix in
      Helpers.check_int "mismatch reported at the 'trace' header" 5
        (parse_error_line s))
    [ ""; "\n"; "\n\n"; "\r\n\r\n" ]

let test_missing_workload_header_line () =
  let s = "# memorex-trace v1\ncpu_ops 3\n" in
  Helpers.check_int "missing header reported at line 1" 1 (parse_error_line s)

let test_region_gap_reported_at_declaration () =
  let broken =
    List.map
      (fun l ->
        if l = "region 0 a 0x1000 64 4 stream" then
          "region 1 a 0x1000 64 4 stream"
        else l)
      text_lines
  in
  Helpers.check_int "non-contiguous region reported at its line" 4
    (parse_error_line (String.concat "\n" broken))

(* -- negative addresses --------------------------------------------------- *)

let test_text_negative_address () =
  List.iter
    (fun addr ->
      let broken =
        List.mapi
          (fun i l -> if i = 5 then Printf.sprintf "R %s 4 0" addr else l)
          text_lines
      in
      Helpers.check_int ("negative address " ^ addr ^ " reported at its line")
        6
        (parse_error_line (String.concat "\n" broken)))
    [ "-0x1000"; "-0x4" ];
  match
    Trace.add (Trace.create ()) ~addr:(-4) ~size:4 ~kind:Access.Read ~region:0
  with
  | () -> Alcotest.fail "Trace.add accepted a negative address"
  | exception Invalid_argument _ -> ()

(* An MXTB image of one region based at 0x10 holding [addrs]: the
   encoder takes raw arrays, so it writes what a corrupt file holds. *)
let binary_image addrs =
  let n = Array.length addrs in
  let header =
    {
      Trace_codec.h_name = "neg";
      h_cpu_ops = 0;
      h_regions =
        [ { Mx_trace.Region.id = 0; name = "r"; base = 0x10; size = 64;
            elem_size = 4; hint = Mx_trace.Region.Stream } ];
      h_slots = 1;
      h_accesses = n;
      h_chunk_cap = Trace_codec.default_chunk_cap;
    }
  in
  let buf = Buffer.create 64 in
  Trace_codec.encode_header buf header;
  let start = Buffer.length buf in
  Trace_codec.encode_chunk buf ~bases:(Trace_codec.bases_of_header header)
    ~addrs
    ~metas:(Array.make n (Trace.pack_meta ~size:4 ~kind:Access.Read ~region:0))
    ~pos:0 ~len:n;
  let footer_offset = Buffer.length buf in
  Trace_codec.encode_footer buf
    { Trace_codec.f_lens = [| footer_offset - start |]; f_counts = [| n |] };
  Trace_codec.encode_trailer buf ~footer_offset;
  Buffer.contents buf

let test_binary_negative_address () =
  (* sanity: the same image with non-negative addresses loads *)
  Helpers.check_int "well-formed image loads" 4
    (Trace.length
       (Trace_io.of_binary_string (binary_image [| 0x18; 0x10; 0x8; 0x0 |]))
         .Workload.trace);
  List.iter
    (fun (label, addrs) ->
      let image = binary_image addrs in
      (match Trace_io.of_binary_string image with
      | _ -> Alcotest.failf "%s: image with a negative address loaded" label
      | exception Trace_io.Parse_error _ -> ());
      with_tmp (fun path ->
          let oc = open_out_bin path in
          output_string oc image;
          close_out oc;
          (match Trace_io.load ~path with
          | _ -> Alcotest.failf "%s: file with a negative address loaded" label
          | exception Trace_io.Parse_error _ -> ());
          (* the stream opens (header and footer are sound) and its
             replay fails on the chunk *)
          let sw = Trace_io.open_stream ~path in
          let st = sw.Workload.s_stream in
          Fun.protect
            ~finally:(fun () -> Trace_stream.close st)
            (fun () ->
              match
                Trace_stream.iter_packed st ~f:(fun ~addr:_ ~size:_ ~kind:_
                                                   ~region:_ -> ())
              with
              | () -> Alcotest.failf "%s: streamed replay accepted it" label
              | exception Trace_io.Parse_error _ -> ())))
    [ ("record", [| -0x4 |]); ("run", [| 0x8; 0x0; -0x8; -0x10 |]) ]

(* -- streams ------------------------------------------------------------ *)

let test_of_trace_chunking () =
  let w = small_workload () in
  let t = w.Workload.trace in
  let st = Trace_stream.of_trace ~chunk_cap:100 t in
  let n = Trace.length t in
  Helpers.check_int "length" n (Trace_stream.length st);
  Helpers.check_int "chunk count" ((n + 99) / 100) (Trace_stream.chunk_count st);
  Helpers.check_int "first chunk start" 0 (Trace_stream.chunk_start st 0);
  Helpers.check_int "second chunk start" 100 (Trace_stream.chunk_start st 1);
  let collected = ref [] in
  Trace_stream.iter_packed st ~f:(fun ~addr ~size ~kind ~region ->
      collected := (addr, size, kind, region) :: !collected);
  let direct = ref [] in
  Trace.iter_packed t ~f:(fun ~addr ~size ~kind ~region ->
      direct := (addr, size, kind, region) :: !direct);
  Helpers.check_true "stream iteration equals trace iteration"
    (!collected = !direct);
  Helpers.check_int "stream hash = trace hash" (Trace.content_hash t)
    (Trace_stream.content_hash st)

let test_file_stream_equals_trace () =
  let w = small_workload () in
  with_tmp (fun path ->
      Trace_io.save ~format:Trace_io.Binary ~chunk_cap:128 w ~path;
      let sw = Trace_io.open_stream ~path in
      let st = sw.Workload.s_stream in
      Helpers.check_int "streamed hash equals in-memory hash"
        (Trace.content_hash w.Workload.trace)
        (Trace_stream.content_hash st);
      Helpers.check_true "streamed fingerprint equals in-memory fingerprint"
        (Workload.streamed_fingerprint sw = Workload.fingerprint w);
      let stats = Trace_stream.io_stats st in
      Helpers.check_true "reads were accounted" (stats.Trace_stream.bytes_read > 0);
      Trace_stream.close st;
      (match Trace_stream.get_chunk st 0 with
      | _ -> Alcotest.fail "get_chunk succeeded after close"
      | exception Invalid_argument _ -> ());
      (* open_stream also wraps text files *)
      Trace_io.save ~format:Trace_io.Text w ~path;
      let tw = Trace_io.open_stream ~path in
      Helpers.check_true "text open_stream fingerprint"
        (Workload.streamed_fingerprint tw = Workload.fingerprint w);
      Trace_stream.close tw.Workload.s_stream)

(* -- streaming simulation ----------------------------------------------- *)

let sim_setup () =
  let w = Helpers.mixed_workload () in
  let arch = Helpers.cache_only_arch w in
  let profile = Helpers.profile_of arch w in
  let brg = Mx_connect.Brg.build arch profile in
  (w, arch, Helpers.naive_conn brg)

let test_streamed_sim_identical () =
  let w, arch, conn = sim_setup () in
  with_tmp (fun path ->
      Trace_io.save ~format:Trace_io.Binary ~chunk_cap:64 w ~path;
      List.iter
        (fun (label, sample, cpu) ->
          let mat = Cycle_sim.run ?sample ~cpu ~workload:w ~arch ~conn () in
          let sw = Trace_io.open_stream ~path in
          let str =
            Cycle_sim.run_stream ?sample ~cpu ~workload:sw ~arch ~conn ()
          in
          Trace_stream.close sw.Workload.s_stream;
          Helpers.check_true (label ^ " identical") (str = mat))
        [
          ("exact blocking", None, Cycle_sim.Blocking);
          ("exact overlap", None, Cycle_sim.Overlap 4);
          ("sampled blocking", Some (50, 450), Cycle_sim.Blocking);
          ("sampled overlap", Some (50, 450), Cycle_sim.Overlap 4);
        ])

let test_seek_skips_chunks () =
  let w, arch, conn = sim_setup () in
  with_tmp (fun path ->
      Trace_io.save ~format:Trace_io.Binary ~chunk_cap:32 w ~path;
      let sw = Trace_io.open_stream ~path in
      let st = sw.Workload.s_stream in
      let r =
        Cycle_sim.run_stream ~sample:(50, 450) ~seek:true ~workload:sw ~arch
          ~conn ()
      in
      let stats = Trace_stream.io_stats st in
      let chunks = Trace_stream.chunk_count st in
      Trace_stream.close st;
      Helpers.check_true "fetched fewer than half the chunks"
        (stats.Trace_stream.chunks_fetched * 2 < chunks);
      (* skipped counts chunks jumped over by a later fetch; a trailing
         off-window is never followed by a fetch, so <= not = *)
      Helpers.check_true "fetched + skipped covers at most all chunks"
        (stats.Trace_stream.chunks_fetched + stats.Trace_stream.chunks_skipped
        <= chunks);
      Helpers.check_true "skips were recorded"
        (stats.Trace_stream.chunks_skipped > 0);
      Helpers.check_true "functional access count preserved"
        (r.Sim_result.accesses = Trace_stream.length st);
      Helpers.check_true "produced a finite latency"
        (Float.is_finite r.Sim_result.avg_mem_latency))

let test_seek_requires_sample () =
  let w, arch, conn = sim_setup () in
  with_tmp (fun path ->
      Trace_io.save ~format:Trace_io.Binary w ~path;
      let sw = Trace_io.open_stream ~path in
      Fun.protect
        ~finally:(fun () -> Trace_stream.close sw.Workload.s_stream)
        (fun () ->
          match Cycle_sim.run_stream ~seek:true ~workload:sw ~arch ~conn () with
          | _ -> Alcotest.fail "seek without sample accepted"
          | exception Invalid_argument _ -> ()))

(* A cold-sampled result over the rich architecture and shared buses,
   pinned bit for bit: skipped chunks, per-chunk recording and timing
   must reproduce it exactly. *)
let test_seek_sampled_pin () =
  let w = Helpers.mixed_workload () in
  let arch = Helpers.rich_arch w in
  let brg = Mx_connect.Brg.build arch (Helpers.profile_of arch w) in
  let conn = Helpers.shared_conn brg in
  with_tmp (fun path ->
      Trace_io.save ~format:Trace_io.Binary ~chunk_cap:32 w ~path;
      let sw = Trace_io.open_stream ~path in
      let r =
        Cycle_sim.run_stream ~sample:(50, 450) ~seek:true ~workload:sw ~arch
          ~conn ()
      in
      Trace_stream.close sw.Workload.s_stream;
      Alcotest.(check string)
        "pinned cold-sampled result"
        "20000 319370 27951 0x1.bf374bc6a7efap+3 0x1.4c7749279133cp+5 \
         0x1.e851eb851eb85p-3 5042 35488 false"
        (Sim_result.to_wire r))

let test_trace_io_metrics_counters () =
  let w, arch, conn = sim_setup () in
  with_tmp (fun path ->
      Trace_io.save ~format:Trace_io.Binary ~chunk_cap:32 w ~path;
      Helpers.with_global_metrics (fun () ->
          let sw = Trace_io.open_stream ~path in
          ignore
            (Cycle_sim.run_stream ~sample:(50, 450) ~seek:true ~workload:sw
               ~arch ~conn ());
          let st = sw.Workload.s_stream in
          let stats = Trace_stream.io_stats st in
          Trace_stream.close st;
          let snap = Mx_util.Metrics.snapshot Mx_util.Metrics.global in
          let counter name =
            Option.value ~default:0
              (List.assoc_opt name snap.Mx_util.Metrics.counters)
          in
          Helpers.check_int "bytes counter matches io_stats"
            stats.Trace_stream.bytes_read
            (counter "trace.io.bytes_read");
          Helpers.check_int "skip counter matches io_stats"
            stats.Trace_stream.chunks_skipped
            (counter "trace.io.chunks_skipped");
          Helpers.check_true "seek counter recorded"
            (counter "trace.io.chunks_seeked" > 0);
          (* schedule-invariant names: must survive the determinism
             filter *)
          let det = Mx_util.Metrics.deterministic_counters snap in
          Helpers.check_true "trace.io.* are deterministic counters"
            (List.mem_assoc "trace.io.bytes_read" det)))

let suite =
  ( "trace_stream",
    [
      Alcotest.test_case "binary roundtrip" `Quick test_binary_roundtrip;
      Alcotest.test_case "binary save/load autodetect" `Quick
        test_binary_save_load_autodetect;
      Alcotest.test_case "runs compress" `Quick test_runs_compress;
      Alcotest.test_case "truncated binary rejected" `Quick
        test_truncated_binary_rejected;
      Alcotest.test_case "truncated file rejected" `Quick
        test_truncated_binary_file_rejected;
      Alcotest.test_case "crlf line numbers" `Quick test_crlf_line_numbers;
      Alcotest.test_case "length mismatch line" `Quick
        test_length_mismatch_at_trace_header;
      Alcotest.test_case "missing workload line" `Quick
        test_missing_workload_header_line;
      Alcotest.test_case "region gap line" `Quick
        test_region_gap_reported_at_declaration;
      Alcotest.test_case "text negative address" `Quick
        test_text_negative_address;
      Alcotest.test_case "binary negative address" `Quick
        test_binary_negative_address;
      Alcotest.test_case "of_trace chunking" `Quick test_of_trace_chunking;
      Alcotest.test_case "file stream equals trace" `Quick
        test_file_stream_equals_trace;
      Alcotest.test_case "streamed sim identical" `Quick
        test_streamed_sim_identical;
      Alcotest.test_case "seek skips chunks" `Quick test_seek_skips_chunks;
      Alcotest.test_case "seek requires sample" `Quick test_seek_requires_sample;
      Alcotest.test_case "seek sampled pin" `Quick test_seek_sampled_pin;
      Alcotest.test_case "trace.io metrics counters" `Quick
        test_trace_io_metrics_counters;
    ] )
