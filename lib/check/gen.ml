module Prng = Mx_util.Prng
module Json = Mx_util.Json
module Region = Mx_trace.Region
module Synthetic = Mx_trace.Synthetic
module Params = Mx_mem.Params
module Mem_arch = Mx_mem.Mem_arch
module Channel = Mx_connect.Channel
module Cluster = Mx_connect.Cluster

let grid_points g ~size ~dim =
  let n = 1 + Prng.int g ~bound:(5 * size) in
  List.init n (fun _ ->
      Array.init dim (fun _ -> float_of_int (Prng.int g ~bound:6)))

let continuous_points g ~size ~dim =
  let n = 1 + Prng.int g ~bound:(5 * size) in
  List.init n (fun _ -> Array.init dim (fun _ -> Prng.float g))

let special_points g ~size ~dim =
  let n = 1 + Prng.int g ~bound:(5 * size) in
  let coord () =
    match Prng.int g ~bound:8 with
    | 0 -> Float.nan
    | 1 -> Float.infinity
    | 2 -> Float.neg_infinity
    | 3 -> -0.0
    | 4 -> 0.0
    | _ -> float_of_int (Prng.int g ~bound:4 - 1)
  in
  let pts = Array.make n [||] in
  for i = 0 to n - 1 do
    pts.(i) <-
      (if i > 0 && Prng.bool g ~p:0.25 then
         Array.copy pts.(Prng.int g ~bound:i)
       else Array.init dim (fun _ -> coord ()))
  done;
  Array.to_list pts

let floats g ~size = List.init size (fun _ -> Prng.float g *. 100.0)

(* -- JSON values ----------------------------------------------------------- *)

(* bytes the writer must escape, or must pass through untouched *)
let json_specials =
  [| '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127'; '\128'; '\255';
     '/' |]

let json_string g ~size =
  String.init
    (Prng.int g ~bound:(size + 2))
    (fun _ ->
      if Prng.bool g ~p:0.3 then Prng.pick g json_specials
      else Char.chr (Prng.int g ~bound:256))

let json_number g =
  let x =
    match Prng.int g ~bound:6 with
    | 0 -> float_of_int (Prng.int_in g ~lo:(-1_000_000) ~hi:1_000_000)
    | 1 ->
      Prng.pick g
        [| 0.0; -0.0; 0.1; 1e15; 1e21; 5e-324; Float.min_float;
           Float.max_float; 9007199254740993.0 |]
    | 2 -> Float.ldexp (Prng.float g) (-Prng.int g ~bound:1075)
    | 3 -> Float.ldexp (Prng.float g) (Prng.int g ~bound:1025)
    | 4 -> Int64.float_of_bits (Prng.next_int64 g)
    | _ -> (Prng.float g -. 0.5) *. 1e6
  in
  let x = if Float.is_finite x then x else 0.0 in
  if Prng.bool g ~p:0.5 then -.x else x

let json g ~size =
  let rec value depth =
    let n = Prng.int g ~bound:(min 6 size + 1) in
    match Prng.int g ~bound:(if depth = 0 then 4 else 6) with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Prng.bool g ~p:0.5)
    | 2 -> Json.Num (json_number g)
    | 3 -> Json.Str (json_string g ~size)
    | 4 -> Json.Arr (List.init n (fun _ -> value (depth - 1)))
    | _ ->
      let keys = ref [] in
      Json.Obj
        (List.init n (fun _ ->
             let k =
               if !keys <> [] && Prng.bool g ~p:0.25 then
                 Prng.pick g (Array.of_list !keys)
               else json_string g ~size
             in
             keys := k :: !keys;
             (k, value (depth - 1))))
  in
  value (1 + (size / 3))

let onchip_nodes =
  [| Channel.Cpu; Channel.Cache; Channel.Sram; Channel.Sbuf; Channel.Lldma |]

let channel g =
  (* dyadic bandwidths (k/8) keep cross-level sums float-exact *)
  let bandwidth = float_of_int (1 + Prng.int g ~bound:64) /. 8.0 in
  let txn_bytes = Prng.pick g [| 4.0; 8.0; 16.0; 32.0 |] in
  if Prng.bool g ~p:0.3 then
    { Channel.src = Prng.pick g onchip_nodes; dst = Channel.Dram;
      bandwidth; txn_bytes }
  else begin
    let src = Prng.pick g onchip_nodes in
    let rec pick_dst () =
      let d = Prng.pick g onchip_nodes in
      if d = src then pick_dst () else d
    in
    { Channel.src; dst = pick_dst (); bandwidth; txn_bytes }
  end

let channels g ~size =
  List.init (1 + Prng.int g ~bound:(min 8 (size + 1))) (fun _ -> channel g)

let clusters g ~size =
  let cls = ref (Cluster.initial (channels g ~size)) in
  for _ = 1 to Prng.int g ~bound:4 do
    let arr = Array.of_list !cls in
    if Array.length arr >= 2 then begin
      let i = Prng.int g ~bound:(Array.length arr) in
      let j = Prng.int g ~bound:(Array.length arr) in
      if i <> j && arr.(i).Cluster.offchip = arr.(j).Cluster.offchip then
        cls :=
          Cluster.merge arr.(i) arr.(j)
          :: List.filteri (fun k _ -> k <> i && k <> j) !cls
    end
  done;
  !cls

let pattern g =
  Prng.pick g
    [| Region.Stream; Region.Indexed; Region.Random_access;
       Region.Self_indirect; Region.Mixed |]

let workload g ~size =
  let nspecs = 1 + Prng.int g ~bound:(min 4 size) in
  let specs =
    List.init nspecs (fun i ->
        Synthetic.spec
          ~name:(Printf.sprintf "r%d" i)
          ~elems:(16 + Prng.int g ~bound:1024)
          ~share:(0.1 +. (Prng.float g *. 3.9))
          ~write_frac:(Prng.float g)
          ~skew:(0.2 +. Prng.float g)
          (pattern g))
  in
  let scale = (200 * size) + 100 + Prng.int g ~bound:200 in
  Synthetic.generate ~name:"gen" ~specs ~scale
    ~seed:(Prng.int g ~bound:1_000_000)

let cache g =
  let size_log = 9 + Prng.int g ~bound:6 in
  let line_log = 4 + Prng.int g ~bound:3 in
  let assoc =
    max 1 (min (1 lsl Prng.int g ~bound:3) (1 lsl (size_log - line_log)))
  in
  { Params.c_size = 1 lsl size_log; c_line = 1 lsl line_log;
    c_assoc = assoc; c_latency = 1; c_policy = Params.default_policy }

(* -- replacement-policy differential cases ------------------------------ *)

let repl_policy g =
  Prng.pick g (Array.of_list Params.all_policies)

let repl_geometry g ~size =
  (* tiny power-of-two geometries (1..8 ways, 1..4 sets) so short
     streams still fill sets and force evictions; associativity is
     always a power of two, keeping every policy (tree-plru included)
     applicable to the same geometry *)
  let ways = 1 lsl Prng.int g ~bound:(min 4 (1 + size)) in
  let sets = 1 lsl Prng.int g ~bound:3 in
  let line = 16 in
  { Params.c_size = sets * ways * line; c_line = line; c_assoc = ways;
    c_latency = 1; c_policy = Params.default_policy }

let repl_stream g ~size ~(geometry : Params.cache) =
  let lines = geometry.Params.c_size / geometry.Params.c_line in
  (* a line universe of twice the capacity keeps both reuse (hits) and
     conflict (evictions) frequent *)
  let universe = max 2 (2 * lines) in
  let n = (8 * size) + 1 + Prng.int g ~bound:(8 * size) in
  List.init n (fun _ ->
      let line = Prng.int g ~bound:universe in
      let addr =
        (line * geometry.Params.c_line)
        + Prng.int g ~bound:geometry.Params.c_line
      in
      (addr, Prng.bool g ~p:0.3))

(* Region bindings by hint: streams to the stream buffer, self-indirect
   regions to the LLDMA, small indexed ones to a scratchpad sized to fit
   them, random ones to the stream buffer when [random_to_sbuf]; the
   rest stay on the cache path.  Draws nothing. *)
let bind_by_hint ?(random_to_sbuf = false) regions ~sbuf ~lldma ~want_sram =
  let bindings = Array.make (List.length regions) Mem_arch.To_cache in
  let sram_bytes = ref 0 in
  List.iter
    (fun (r : Region.t) ->
      match r.Region.hint with
      | Region.Stream when sbuf -> bindings.(r.Region.id) <- Mem_arch.To_sbuf
      | Region.Self_indirect when lldma ->
        bindings.(r.Region.id) <- Mem_arch.To_lldma
      | Region.Indexed when want_sram && r.Region.size <= 4096 ->
        bindings.(r.Region.id) <- Mem_arch.To_sram;
        sram_bytes := !sram_bytes + r.Region.size
      | Region.Random_access | Region.Mixed when random_to_sbuf ->
        bindings.(r.Region.id) <- Mem_arch.To_sbuf
      | _ -> ())
    regions;
  let sram =
    if !sram_bytes > 0 then Some (Mx_mem.Module_lib.sram_for_bytes !sram_bytes)
    else None
  in
  (bindings, sram)

let mem_arch_spec g (w : Mx_trace.Workload.t) ~label =
  let cache = cache g in
  let sbuf =
    if Prng.bool g ~p:0.5 then Some (List.hd Mx_mem.Module_lib.stream_buffers)
    else None
  and lldma =
    if Prng.bool g ~p:0.5 then Some (List.hd Mx_mem.Module_lib.lldmas)
    else None
  and want_sram = Prng.bool g ~p:0.3 in
  let bindings, sram =
    bind_by_hint w.Mx_trace.Workload.regions ~sbuf:(sbuf <> None)
      ~lldma:(lldma <> None) ~want_sram
  in
  Mem_arch.make ~label ~cache ?sbuf ?lldma ?sram ~bindings ()

let mem_arch g w = mem_arch_spec g w ~label:"gen"

(* -- the whole timing model --------------------------------------------- *)

let pow2 g ~lo ~hi = 1 lsl (lo + Prng.int g ~bound:(hi - lo + 1))

let sim_arch g (w : Mx_trace.Workload.t) =
  let cache, l2, victim, wbuf =
    if Prng.bool g ~p:0.2 then
      (* no cache: To_cache regions go off-chip, maybe posted *)
      let wbuf =
        if Prng.bool g ~p:0.7 then
          Some
            { Params.wb_entries = 1 + Prng.int g ~bound:8;
              wb_drain = 1 + Prng.int g ~bound:16 }
        else None
      in
      (None, None, None, wbuf)
    else begin
      let c = { (cache g) with Params.c_policy = repl_policy g } in
      let l2 =
        if Prng.bool g ~p:0.5 then begin
          let line = max c.Params.c_line (pow2 g ~lo:4 ~hi:7) in
          let size = max c.Params.c_size (pow2 g ~lo:11 ~hi:16) in
          Some
            { Params.c_size = size; c_line = line;
              c_assoc = min (pow2 g ~lo:0 ~hi:3) (size / line);
              c_latency = 1 + Prng.int g ~bound:6;
              c_policy = Params.default_policy }
        end
        else None
      and victim =
        if Prng.bool g ~p:0.4 then
          Some
            { Params.v_entries = 1 + Prng.int g ~bound:8;
              v_latency = 1 + Prng.int g ~bound:3 }
        else None
      in
      (Some c, l2, victim, None)
    end
  in
  (* a deep prefetcher over short lines that also serves the randomly
     accessed regions: every forward jump inside its window fetches a
     different number of lines, so recorded outcome ids outgrow a byte *)
  let deep = Prng.bool g ~p:0.1 in
  let sbuf =
    if deep then
      Some
        { Params.sb_streams = 1 + Prng.int g ~bound:2; sb_line = 4;
          sb_depth = 300 + Prng.int g ~bound:700; sb_latency = 1 }
    else if Prng.bool g ~p:0.5 then
      Some (Prng.pick g (Array.of_list Mx_mem.Module_lib.stream_buffers))
    else None
  and lldma =
    if Prng.bool g ~p:0.5 then
      Some (Prng.pick g (Array.of_list Mx_mem.Module_lib.lldmas))
    else None
  and want_sram = Prng.bool g ~p:0.3 in
  let bindings, sram =
    bind_by_hint ~random_to_sbuf:deep w.Mx_trace.Workload.regions
      ~sbuf:(sbuf <> None) ~lldma:(lldma <> None) ~want_sram
  in
  Mem_arch.make ~label:"gen" ?cache ?l2 ?victim ?wbuf ?sbuf ?lldma ?sram
    ~bindings ()

let window g =
  let on = 1 + Prng.int g ~bound:64 in
  (on, Prng.int g ~bound:200)

let sample g = if Prng.bool g ~p:0.3 then None else Some (window g)

let cpu_model g =
  if Prng.bool g ~p:0.5 then Mx_sim.Cycle_sim.Blocking
  else Mx_sim.Cycle_sim.Overlap (1 + Prng.int g ~bound:4)

let conn_onchip =
  lazy
    [ Mx_connect.Component.by_name "ded32";
      Mx_connect.Component.by_name "mux32";
      Mx_connect.Component.by_name "ahb32" ]

let conn_offchip = lazy [ Mx_connect.Component.by_name "off32" ]

let conn g (brg : Mx_connect.Brg.t) =
  let conns =
    Mx_connect.Assign.enumerate_levels ~max_designs_per_level:32
      ~onchip:(Lazy.force conn_onchip) ~offchip:(Lazy.force conn_offchip)
      brg.Mx_connect.Brg.channels
  in
  match conns with
  | [] -> invalid_arg "Gen.conn: no feasible connectivity for this BRG"
  | l -> List.nth l (Prng.int g ~bound:(List.length l))

type pipeline = {
  p_workload : Mx_trace.Workload.t;
  p_arch : Mx_mem.Mem_arch.t;
  p_profile : Mx_mem.Mem_sim.stats;
  p_brg : Mx_connect.Brg.t;
}

let pipeline_over w arch =
  let msim = Mx_mem.Mem_sim.create arch ~regions:w.Mx_trace.Workload.regions in
  let profile = Mx_mem.Mem_sim.run msim w.Mx_trace.Workload.trace in
  let brg = Mx_connect.Brg.build arch profile in
  { p_workload = w; p_arch = arch; p_profile = profile; p_brg = brg }

let pipeline g ~size =
  let w = workload g ~size in
  pipeline_over w (mem_arch g w)

let sim_pipeline g ~size =
  let w = workload g ~size in
  pipeline_over w (sim_arch g w)
