(* Append-only segment files + an in-memory index, rebuilt on open.

   Layout: [dir/seg-NNNNNN.mxps], each
     "MXPS1\n" <revision> "\n"            segment header
     (0xC5 keylen:u32le vallen:u32le key value md5:16B)*   records

   The scan on open stops at the first record that fails framing or
   digest verification: everything before it is the committed prefix,
   everything after is an untrusted tail (a torn append, or garbage
   behind a flipped byte) and is skipped.  A reopened store never
   appends to an old segment — it always starts a fresh one — so a
   skipped tail can never be "continued" into accidental validity.

   The writer flushes the channel on every put (a committed record
   survives a process crash) and fsyncs on rotation, sync and close (a
   synced record survives a machine crash).  Readers use their own
   in_channels, so other processes opening the directory read-only see
   a valid prefix of the same bytes. *)

exception Injected_crash of string

type fault = Torn_write of int | Corrupt_record | Fail_fsync

type segment = { idx : int; path : string; mutable reader : in_channel option }

type t = {
  dir : string;
  revision : string;
  segment_max_bytes : int;
  verify : bool;
  metrics_prefix : string option;
  mu : Mutex.t;
  index : (string, int * int * int) Hashtbl.t;
      (* key -> (segment idx, value offset, value length) *)
  segments : (int, segment) Hashtbl.t;
  mutable active : (int * out_channel) option;
  mutable active_bytes : int;
  mutable next_idx : int;
  mutable fault : fault option;
  mutable closed : bool;
  mutable appended : int;
  mutable recovered : int;
  mutable skipped_records : int;
  mutable stale_segments : int;
  mutable get_hits : int;
  mutable get_misses : int;
}

type stats = {
  entries : int;
  segments : int;
  appended : int;
  recovered : int;
  skipped_records : int;
  stale_segments : int;
  get_hits : int;
  get_misses : int;
}

let magic = "MXPS1\n"
let record_magic = '\xC5'
let max_key_len = 1 lsl 20
let max_val_len = 1 lsl 26
let digest_len = 16

let record_metric t what =
  match t.metrics_prefix with
  | None -> ()
  | Some p -> Metrics.incr Metrics.global (p ^ "." ^ what)

(* -- encoding ------------------------------------------------------------ *)

let add_u32 b n =
  Buffer.add_char b (Char.chr (n land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff))

let read_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

(* magic byte, key length, value length, key, value — digest appended
   over all of it *)
let build_record ~key value =
  let b =
    Buffer.create (9 + String.length key + String.length value + digest_len)
  in
  Buffer.add_char b record_magic;
  add_u32 b (String.length key);
  add_u32 b (String.length value);
  Buffer.add_string b key;
  Buffer.add_string b value;
  let body = Buffer.contents b in
  body ^ Digest.string body

(* -- segment files ------------------------------------------------------- *)

let segment_path dir idx = Filename.concat dir (Printf.sprintf "seg-%06d.mxps" idx)

let segment_idx_of_name name =
  if
    String.length name = 15
    && String.sub name 0 4 = "seg-"
    && Filename.check_suffix name ".mxps"
  then int_of_string_opt (String.sub name 4 6)
  else None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Scan one segment, filling the index with its valid records.  Stops
   at the first framing/digest failure; returns true when a tail was
   skipped. *)
let scan_segment t (seg : segment) =
  let ic = open_in_bin seg.path in
  seg.reader <- Some ic;
  let file_len = in_channel_length ic in
  let stale = ref false and skipped = ref false in
  (try
     let m = really_input_string ic (String.length magic) in
     if m <> magic then skipped := true
     else begin
       let rev = input_line ic in
       if rev <> t.revision then stale := true
       else begin
         let pos = ref (pos_in ic) in
         let stop = ref false in
         while not !stop do
           if file_len - !pos < 9 + digest_len then begin
             if file_len > !pos then skipped := true;
             stop := true
           end
           else begin
             let header = really_input_string ic 9 in
             let key_len = read_u32 header 1 and val_len = read_u32 header 5 in
             if
               header.[0] <> record_magic
               || key_len < 0 || key_len > max_key_len
               || val_len < 0 || val_len > max_val_len
               || file_len - !pos < 9 + key_len + val_len + digest_len
             then begin
               skipped := true;
               stop := true
             end
             else begin
               let payload = really_input_string ic (key_len + val_len) in
               let digest = really_input_string ic digest_len in
               if t.verify && Digest.string (header ^ payload) <> digest then begin
                 skipped := true;
                 stop := true
               end
               else begin
                 let key = String.sub payload 0 key_len in
                 Hashtbl.replace t.index key
                   (seg.idx, !pos + 9 + key_len, val_len);
                 t.recovered <- t.recovered + 1;
                 pos := !pos + 9 + key_len + val_len + digest_len
               end
             end
           end
         done
       end
     end
   with End_of_file -> skipped := true);
  if !stale then begin
    t.stale_segments <- t.stale_segments + 1;
    (* a stale segment's reader is never consulted *)
    close_in ic;
    seg.reader <- None;
    Hashtbl.remove t.segments seg.idx
  end;
  if !skipped then t.skipped_records <- t.skipped_records + 1

let open_dir_internal ?(segment_max_bytes = 8 * 1024 * 1024) ?metrics_prefix
    ~verify ~revision ~dir () =
  if String.contains revision '\n' then
    invalid_arg "Persist_cache.open_dir: revision must not contain newlines";
  match
    (try
       mkdir_p dir;
       if not (Sys.is_directory dir) then Error (dir ^ " is not a directory")
       else Ok ()
     with
    | Unix.Unix_error (e, _, _) -> Error (dir ^ ": " ^ Unix.error_message e)
    | Sys_error m -> Error m)
  with
  | Error e -> Error e
  | Ok () ->
    let t =
      {
        dir;
        revision;
        segment_max_bytes = max 4096 segment_max_bytes;
        verify;
        metrics_prefix;
        mu = Mutex.create ();
        index = Hashtbl.create 1024;
        segments = Hashtbl.create 16;
        active = None;
        active_bytes = 0;
        next_idx = 0;
        fault = None;
        closed = false;
        appended = 0;
        recovered = 0;
        skipped_records = 0;
        stale_segments = 0;
        get_hits = 0;
        get_misses = 0;
      }
    in
    (try
       let idxs =
         Sys.readdir dir |> Array.to_list
         |> List.filter_map segment_idx_of_name
         |> List.sort compare
       in
       List.iter
         (fun idx ->
           let seg = { idx; path = segment_path dir idx; reader = None } in
           Hashtbl.replace t.segments idx seg;
           scan_segment t seg;
           t.next_idx <- max t.next_idx (idx + 1))
         idxs;
       Ok t
     with Sys_error m -> Error m)

let open_dir ?segment_max_bytes ?metrics_prefix ~revision ~dir () =
  open_dir_internal ?segment_max_bytes ?metrics_prefix ~verify:true ~revision
    ~dir ()

(* -- the write path ------------------------------------------------------ *)

let do_fsync t oc =
  flush oc;
  match t.fault with
  | Some Fail_fsync ->
    t.fault <- None;
    raise (Injected_crash "fsync failed")
  | _ -> ( try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ())

(* Seal the active segment: flush, fsync, close.  The next put starts a
   fresh segment. *)
let seal_active t =
  match t.active with
  | None -> ()
  | Some (_, oc) ->
    t.active <- None;
    t.active_bytes <- 0;
    do_fsync t oc;
    close_out oc

let tmp_seq = Atomic.make 0

(* A new segment's header goes to a tmp file no other live handle uses
   (the pid tells processes apart, [tmp_seq] handles; no seg-N.mxps
   name, so the scanner never reads it), is fsynced, and is then linked
   to the segment name: a crash leaves a stray tmp file, never a
   headerless segment.  [Unix.link] fails with EEXIST when another
   writer holds the name, and the next index is tried. *)
let ensure_active t =
  match t.active with
  | Some a -> a
  | None ->
    let header = magic ^ t.revision ^ "\n" in
    let tmp =
      Filename.concat t.dir
        (Printf.sprintf "new-%d-%d.tmp" (Unix.getpid ())
           (Atomic.fetch_and_add tmp_seq 1))
    in
    let oc = open_out_bin tmp in
    output_string oc header;
    do_fsync t oc;
    close_out oc;
    let rec claim () =
      let idx = t.next_idx in
      t.next_idx <- idx + 1;
      let path = segment_path t.dir idx in
      match Unix.link tmp path with
      | () -> (idx, path)
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> claim ()
    in
    let idx, path = claim () in
    Sys.remove tmp;
    let oc =
      open_out_gen [ Open_append; Open_wronly; Open_binary ] 0o644 path
    in
    Hashtbl.replace t.segments idx { idx; path; reader = None };
    t.active <- Some (idx, oc);
    t.active_bytes <- String.length header;
    (idx, oc)

let put t ~key value =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      if t.closed then invalid_arg "Persist_cache.put: store is closed";
      let idx, oc = ensure_active t in
      let record = build_record ~key value in
      (match t.fault with
      | Some (Torn_write n) ->
        t.fault <- None;
        let n = min (max 0 n) (String.length record) in
        output_string oc (String.sub record 0 n);
        flush oc;
        t.active_bytes <- t.active_bytes + n;
        raise (Injected_crash (Printf.sprintf "torn write after %d bytes" n))
      | Some Corrupt_record ->
        t.fault <- None;
        (* flip one payload byte after the digest was computed: the
           record lands whole, framing intact, CRC wrong *)
        let b = Bytes.of_string record in
        let at = 9 + String.length key in
        let at = if at < Bytes.length b - digest_len then at else 9 in
        Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xFF));
        output_bytes oc b;
        flush oc
      | Some Fail_fsync | None -> output_string oc record; flush oc);
      t.active_bytes <- t.active_bytes + String.length record;
      Hashtbl.replace t.index key
        (idx, t.active_bytes - String.length record + 9 + String.length key,
         String.length value);
      t.appended <- t.appended + 1;
      record_metric t "writes";
      if t.active_bytes >= t.segment_max_bytes then seal_active t)

(* -- the read path ------------------------------------------------------- *)

let reader_of (t : t) idx =
  match Hashtbl.find_opt t.segments idx with
  | None -> None
  | Some seg -> (
    match seg.reader with
    | Some ic -> Some ic
    | None ->
      let ic = open_in_bin seg.path in
      seg.reader <- Some ic;
      Some ic)

let get t ~key =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      match Hashtbl.find_opt t.index key with
      | None ->
        t.get_misses <- t.get_misses + 1;
        record_metric t "misses";
        None
      | Some (idx, off, len) -> (
        match reader_of t idx with
        | None ->
          t.get_misses <- t.get_misses + 1;
          record_metric t "misses";
          None
        | Some ic ->
          seek_in ic off;
          let v = really_input_string ic len in
          t.get_hits <- t.get_hits + 1;
          record_metric t "hits";
          Some v))

let mem t ~key =
  Mutex.lock t.mu;
  let r = Hashtbl.mem t.index key in
  Mutex.unlock t.mu;
  r

let sync t =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () -> match t.active with None -> () | Some (_, oc) -> do_fsync t oc)

let close t =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      if not t.closed then begin
        seal_active t;
        Hashtbl.iter
          (fun _ seg ->
            match seg.reader with
            | Some ic ->
              close_in_noerr ic;
              seg.reader <- None
            | None -> ())
          t.segments;
        t.closed <- true
      end)

let length t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.index in
  Mutex.unlock t.mu;
  n

let stats t =
  Mutex.lock t.mu;
  let s =
    {
      entries = Hashtbl.length t.index;
      segments = Hashtbl.length t.segments;
      appended = t.appended;
      recovered = t.recovered;
      skipped_records = t.skipped_records;
      stale_segments = t.stale_segments;
      get_hits = t.get_hits;
      get_misses = t.get_misses;
    }
  in
  Mutex.unlock t.mu;
  s

module Testing = struct
  exception Injected_crash = Injected_crash

  type nonrec fault = fault = Torn_write of int | Corrupt_record | Fail_fsync

  let set_fault t f =
    Mutex.lock t.mu;
    t.fault <- f;
    Mutex.unlock t.mu

  let segment_files t =
    Mutex.lock t.mu;
    let files =
      Hashtbl.fold (fun _ seg acc -> seg.path :: acc) t.segments []
      |> List.sort compare
    in
    Mutex.unlock t.mu;
    files

  let truncate_file ~path ~at =
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.ftruncate fd at)

  let flip_byte ~path ~at =
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        ignore (Unix.lseek fd at Unix.SEEK_SET);
        let b = Bytes.create 1 in
        if Unix.read fd b 0 1 = 1 then begin
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
          ignore (Unix.lseek fd at Unix.SEEK_SET);
          ignore (Unix.write fd b 0 1)
        end)

  let open_unverified ~revision ~dir () =
    open_dir_internal ~verify:false ~revision ~dir ()
end
