type binding = To_cache | To_sram | To_sbuf | To_lldma

type t = {
  label : string;
  cache : Params.cache option;
  sbuf : Params.stream_buffer option;
  lldma : Params.lldma option;
  sram : Params.sram option;
  l2 : Params.cache option;
  victim : Params.victim option;
  wbuf : Params.write_buffer option;
  bindings : binding array;
  fingerprint : string;
}

(* Canonical structural fingerprint: every parameter of every present
   module plus the region binding table, one unambiguous field order.
   The label is deliberately excluded — two architectures with the same
   modules and bindings behave identically whatever they are called, so
   they may share evaluation-cache entries. *)
let fingerprint_of ~cache ~sbuf ~lldma ~sram ~l2 ~victim ~wbuf bindings =
  let b = Buffer.create 96 in
  let opt tag f = function
    | None -> Buffer.add_string b (tag ^ "=-;")
    | Some p -> Buffer.add_string b (Printf.sprintf "%s=%s;" tag (f p))
  in
  let cache_fp (c : Params.cache) =
    Printf.sprintf "%d/%d/%d/%d/%s" c.c_size c.c_line c.c_assoc c.c_latency
      (Params.policy_tag c.c_policy)
  in
  Buffer.add_string b "mem:";
  opt "c" cache_fp cache;
  opt "l2" cache_fp l2;
  opt "sb"
    (fun (s : Params.stream_buffer) ->
      Printf.sprintf "%d/%d/%d/%d" s.sb_streams s.sb_line s.sb_depth
        s.sb_latency)
    sbuf;
  opt "ll"
    (fun (l : Params.lldma) ->
      Printf.sprintf "%d/%d/%d/%d" l.ll_entries l.ll_elem l.ll_max_gap
        l.ll_latency)
    lldma;
  opt "sr"
    (fun (s : Params.sram) -> Printf.sprintf "%d/%d" s.s_size s.s_latency)
    sram;
  opt "v"
    (fun (v : Params.victim) -> Printf.sprintf "%d/%d" v.v_entries v.v_latency)
    victim;
  opt "wb"
    (fun (w : Params.write_buffer) ->
      Printf.sprintf "%d/%d" w.wb_entries w.wb_drain)
    wbuf;
  Buffer.add_string b "b=";
  Array.iter
    (fun bind ->
      Buffer.add_char b
        (match bind with
        | To_cache -> 'c'
        | To_sram -> 's'
        | To_sbuf -> 'b'
        | To_lldma -> 'l'))
    bindings;
  Buffer.contents b

let make ~label ?cache ?sbuf ?lldma ?sram ?l2 ?victim ?wbuf ~bindings () =
  Option.iter Params.validate_cache cache;
  Option.iter Params.validate_cache l2;
  Option.iter Params.validate_victim victim;
  Option.iter Params.validate_write_buffer wbuf;
  if victim <> None && cache = None then
    invalid_arg "Mem_arch.make: victim buffer requires a cache";
  (match (l2, cache) with
  | Some _, None -> invalid_arg "Mem_arch.make: L2 requires an L1 cache"
  | Some l2p, Some l1p ->
    if l2p.Params.c_line < l1p.Params.c_line then
      invalid_arg "Mem_arch.make: L2 line must be >= L1 line";
    if l2p.Params.c_size < l1p.Params.c_size then
      invalid_arg "Mem_arch.make: L2 must be at least as large as L1"
  | None, _ -> ());
  Array.iteri
    (fun i b ->
      let missing name =
        invalid_arg
          (Printf.sprintf
             "Mem_arch.make: region %d bound to absent module %s" i name)
      in
      match b with
      | To_cache -> () (* falls through to DRAM when cache is absent *)
      | To_sram -> if sram = None then missing "sram"
      | To_sbuf -> if sbuf = None then missing "stream buffer"
      | To_lldma -> if lldma = None then missing "lldma")
    bindings;
  (* a copy, so a caller's later write cannot desync the fingerprint *)
  let bindings = Array.copy bindings in
  {
    label;
    cache;
    sbuf;
    lldma;
    sram;
    l2;
    victim;
    wbuf;
    bindings;
    fingerprint =
      fingerprint_of ~cache ~sbuf ~lldma ~sram ~l2 ~victim ~wbuf bindings;
  }

let cost_gates t =
  let opt f = function Some p -> f p | None -> 0 in
  let victim_cost =
    match (t.victim, t.cache) with
    | Some v, Some c -> Cost_model.victim v ~line:c.Params.c_line
    | _ -> 0
  in
  opt Cost_model.cache t.cache
  + opt Cost_model.cache t.l2
  + opt Cost_model.stream_buffer t.sbuf
  + opt Cost_model.lldma t.lldma
  + opt Cost_model.sram t.sram
  + victim_cost
  + opt Cost_model.write_buffer t.wbuf

let has_module t = function
  | To_cache -> t.cache <> None
  | To_sram -> t.sram <> None
  | To_sbuf -> t.sbuf <> None
  | To_lldma -> t.lldma <> None

let binding_of t ~region =
  if region < 0 || region >= Array.length t.bindings then
    invalid_arg "Mem_arch.binding_of: region id out of range";
  t.bindings.(region)

let fingerprint t = t.fingerprint

let describe t =
  let parts =
    List.filter_map
      (fun x -> x)
      [
        Option.map
          (fun (c : Params.cache) ->
            if c.c_policy = Params.default_policy then
              Printf.sprintf "cache %dKB/%d/%d" (c.c_size / 1024) c.c_line
                c.c_assoc
            else
              Printf.sprintf "cache %dKB/%d/%d/%s" (c.c_size / 1024) c.c_line
                c.c_assoc
                (Params.policy_to_string c.c_policy))
          t.cache;
        Option.map
          (fun (s : Params.sram) -> Printf.sprintf "sram %dB" s.s_size)
          t.sram;
        Option.map
          (fun (c : Params.cache) ->
            if c.c_policy = Params.default_policy then
              Printf.sprintf "L2 %dKB/%d/%d" (c.c_size / 1024) c.c_line
                c.c_assoc
            else
              Printf.sprintf "L2 %dKB/%d/%d/%s" (c.c_size / 1024) c.c_line
                c.c_assoc
                (Params.policy_to_string c.c_policy))
          t.l2;
        Option.map
          (fun (s : Params.stream_buffer) ->
            Printf.sprintf "sbuf %dx%dB" s.sb_streams s.sb_line)
          t.sbuf;
        Option.map
          (fun (l : Params.lldma) -> Printf.sprintf "lldma %d" l.ll_entries)
          t.lldma;
        Option.map
          (fun (v : Params.victim) -> Printf.sprintf "victim %d" v.v_entries)
          t.victim;
        Option.map
          (fun (w : Params.write_buffer) ->
            Printf.sprintf "wbuf %d" w.wb_entries)
          t.wbuf;
      ]
  in
  if parts = [] then "off-chip only" else String.concat " + " parts

let pp fmt t = Format.fprintf fmt "%s [%s]" t.label (describe t)
