module Params = Mx_mem.Params
module Mem_arch = Mx_mem.Mem_arch
module Mem_sim = Mx_mem.Mem_sim
module Profile = Mx_trace.Profile
module Region = Mx_trace.Region

type candidate = {
  arch : Mem_arch.t;
  cost_gates : int;
  miss_ratio : float;
  profile : Mem_sim.stats;
}

type config = {
  caches : Params.cache list;
  include_no_cache : bool;
  sbufs : Params.stream_buffer list;
  lldmas : Params.lldma list;
  l2s : Params.cache list;
  victims : Params.victim list;
  write_buffers : Params.write_buffer list;
  sram_budget : int;
  max_selected : int;
}

let default_config =
  {
    caches = Mx_mem.Module_lib.caches;
    include_no_cache = true;
    sbufs = Mx_mem.Module_lib.stream_buffers;
    lldmas = Mx_mem.Module_lib.lldmas;
    l2s = Mx_mem.Module_lib.l2_caches;
    victims = Mx_mem.Module_lib.victims;
    write_buffers = Mx_mem.Module_lib.write_buffers;
    sram_budget = 16 * 1024;
    max_selected = 5;
  }

let reduced_config =
  {
    caches =
      List.filteri (fun i _ -> i mod 3 = 0) Mx_mem.Module_lib.caches;
    include_no_cache = false;
    sbufs = [ List.hd Mx_mem.Module_lib.stream_buffers ];
    lldmas = [ List.hd Mx_mem.Module_lib.lldmas ];
    l2s = [];
    victims = [];
    write_buffers = [];
    sram_budget = 8 * 1024;
    max_selected = 4;
  }

(* Regions a scratchpad mapping would take, greedily by traffic density,
   within the budget. *)
let sram_plan cfg (p : Profile.t) =
  if cfg.sram_budget <= 0 then ([], 0)
  else begin
    let indexed =
      Array.to_list p.Profile.per_region
      |> List.filter (fun (s : Profile.region_stats) ->
             Profile.pattern p s.region = Region.Indexed
             && s.footprint > 0
             && s.footprint <= cfg.sram_budget)
      |> List.sort (fun (a : Profile.region_stats) b ->
             compare
               (float_of_int b.bytes /. float_of_int (max 1 b.footprint))
               (float_of_int a.bytes /. float_of_int (max 1 a.footprint)))
    in
    let rec take used acc = function
      | [] -> (List.rev acc, used)
      | (s : Profile.region_stats) :: rest ->
        if used + s.footprint <= cfg.sram_budget then
          take (used + s.footprint) (s.region :: acc) rest
        else take used acc rest
    in
    take 0 [] indexed
  end

let regions_with (p : Profile.t) pat =
  Array.to_list p.Profile.per_region
  |> List.filter_map (fun (s : Profile.region_stats) ->
         if Profile.pattern p s.region = pat then Some s.region else None)

let label_of ~cache ~sram ~sbuf ~lldma ~l2 ~victim ~wbuf =
  let parts =
    List.filter_map
      (fun x -> x)
      [
        Option.map
          (fun (c : Params.cache) ->
            (* non-default policies are part of the design's identity,
               so they show in the label; the default stays "C%dK" so
               existing output is unchanged *)
            if c.c_policy = Params.default_policy then
              Printf.sprintf "C%dK" (c.c_size / 1024)
            else
              Printf.sprintf "C%dK-%s" (c.c_size / 1024)
                (Params.policy_to_string c.c_policy))
          cache;
        (if sram then Some "SP" else None);
        Option.map
          (fun (s : Params.stream_buffer) ->
            Printf.sprintf "SB%d" s.sb_streams)
          sbuf;
        Option.map
          (fun (l : Params.lldma) -> Printf.sprintf "LL%d" l.ll_entries)
          lldma;
        Option.map
          (fun (c : Params.cache) -> Printf.sprintf "L2-%dK" (c.c_size / 1024))
          l2;
        Option.map
          (fun (v : Params.victim) -> Printf.sprintf "V%d" v.v_entries)
          victim;
        Option.map
          (fun (w : Params.write_buffer) -> Printf.sprintf "WB%d" w.wb_entries)
          wbuf;
      ]
  in
  if parts = [] then "none" else String.concat "+" parts

let build_arch (p : Profile.t) ~cache ~sram_regions ~sram_bytes ~sbuf ~lldma
    ~l2 ~victim ~wbuf =
  let nregions = List.length p.Profile.workload.Mx_trace.Workload.regions in
  let bindings = Array.make nregions Mem_arch.To_cache in
  let set pat binding =
    Array.iter
      (fun (s : Profile.region_stats) ->
        if Profile.pattern p s.region = pat then
          bindings.(s.region.Region.id) <- binding)
      p.Profile.per_region
  in
  if sbuf <> None then set Region.Stream Mem_arch.To_sbuf;
  if lldma <> None then set Region.Self_indirect Mem_arch.To_lldma;
  List.iter
    (fun (r : Region.t) -> bindings.(r.Region.id) <- Mem_arch.To_sram)
    sram_regions;
  let sram =
    if sram_regions = [] then None
    else Some (Mx_mem.Module_lib.sram_for_bytes sram_bytes)
  in
  Mem_arch.make
    ~label:
      (label_of ~cache ~sram:(sram <> None) ~sbuf ~lldma ~l2 ~victim ~wbuf)
    ?cache ?sbuf ?lldma ?sram ?l2 ?victim ?wbuf ~bindings ()

let candidates cfg (p : Profile.t) =
  let streams = regions_with p Region.Stream in
  let chases = regions_with p Region.Self_indirect in
  let sram_regions, sram_bytes = sram_plan cfg p in
  let cache_opts =
    (if cfg.include_no_cache then [ None ] else [])
    @ List.map (fun c -> Some c) cfg.caches
  in
  let sbuf_opts =
    if streams = [] then [ None ]
    else None :: List.map (fun s -> Some s) cfg.sbufs
  in
  let lldma_opts =
    if chases = [] then [ None ]
    else None :: List.map (fun l -> Some l) cfg.lldmas
  in
  let sram_opts =
    if sram_regions = [] then [ false ] else [ false; true ]
  in
  List.concat_map
    (fun cache ->
      List.concat_map
        (fun sbuf ->
          List.concat_map
            (fun lldma ->
              List.concat_map
                (fun use_sram ->
                  let sram_regions =
                    if use_sram then sram_regions else []
                  in
                  (* the completely empty architecture (no modules at
                     all) is not a design, just the off-chip baseline *)
                  if
                    cache = None && sbuf = None && lldma = None
                    && sram_regions = []
                  then []
                  else begin
                    (* victim buffers only make sense behind a cache;
                       write buffers only where direct DRAM stores occur
                       (cache-less architectures) *)
                    let victim_opts =
                      if cache = None then [ None ]
                      else None :: List.map (fun v -> Some v) cfg.victims
                    and wbuf_opts =
                      if cache <> None then [ None ]
                      else None :: List.map (fun w -> Some w) cfg.write_buffers
                    and l2_opts =
                      match cache with
                      | None -> [ None ]
                      | Some (c : Params.cache) ->
                        None
                        :: List.filter_map
                             (fun (l2 : Params.cache) ->
                               if
                                 l2.c_size >= c.c_size
                                 && l2.c_line >= c.c_line
                               then Some (Some l2)
                               else None)
                             cfg.l2s
                    in
                    List.concat_map
                      (fun victim ->
                        List.concat_map
                          (fun wbuf ->
                            List.map
                              (fun l2 ->
                                build_arch p ~cache ~sram_regions ~sram_bytes
                                  ~sbuf ~lldma ~l2 ~victim ~wbuf)
                              l2_opts)
                          wbuf_opts)
                      victim_opts
                  end)
                sram_opts)
            lldma_opts)
        sbuf_opts)
    cache_opts

let candidate_of arch stats =
  {
    arch;
    cost_gates = Mem_arch.cost_gates arch;
    miss_ratio = Mem_sim.miss_ratio stats;
    profile = stats;
  }

let evaluate (p : Profile.t) arch =
  let w = p.Profile.workload in
  let msim = Mem_sim.create arch ~regions:w.Mx_trace.Workload.regions in
  candidate_of arch (Mem_sim.run msim w.Mx_trace.Workload.trace)

let explore ?(config = default_config) p =
  let w = p.Profile.workload in
  let archs = candidates config p in
  List.map2 candidate_of archs
    (Mem_sim.run_all archs ~regions:w.Mx_trace.Workload.regions
       w.Mx_trace.Workload.trace)

let pareto cands =
  Mx_util.Pareto.front2
    ~x:(fun c -> float_of_int c.cost_gates)
    ~y:(fun c -> c.miss_ratio)
    cands

let thin ~max_selected pts =
  let n = List.length pts in
  if n <= max_selected || max_selected <= 0 then pts
  else if max_selected = 1 then
    (* one slot: the cheapest point, the spacing's [i = 0] *)
    [ List.hd pts ]
  else begin
    let arr = Array.of_list pts in
    (* evenly spaced indices, always keeping both extremes *)
    List.init max_selected (fun i ->
        arr.(i * (n - 1) / (max_selected - 1)))
  end

let is_traditional (c : candidate) =
  c.arch.Mem_arch.cache <> None
  && c.arch.Mem_arch.l2 = None
  && c.arch.Mem_arch.sbuf = None
  && c.arch.Mem_arch.lldma = None
  && c.arch.Mem_arch.sram = None
  && c.arch.Mem_arch.victim = None
  && c.arch.Mem_arch.wbuf = None

let select ?(config = default_config) p =
  let all = explore ~config p in
  let front = pareto all in
  (* The paper excludes "designs exhibiting very bad performance (many
     times worse than the best designs)" from further exploration; keep
     the front within a band of the best miss ratio. *)
  let best =
    List.fold_left (fun acc c -> Float.min acc c.miss_ratio) infinity front
  in
  let keep c =
    c.miss_ratio <= Float.max (2.0 *. best) (best +. 0.02)
  in
  let banded = List.filter keep front in
  let banded = if banded = [] then front else banded in
  let thinned = thin ~max_selected:config.max_selected banded in
  (* Always hand ConEx a traditional cache-only architecture: the
     paper's exploration keeps the conventional design as its baseline
     (designs a/b of Fig. 6). *)
  if List.exists is_traditional thinned then thinned
  else
    match
      List.filter is_traditional all
      |> List.sort (fun a b -> Float.compare a.miss_ratio b.miss_ratio)
    with
    | [] -> thinned
    | best_traditional :: _ ->
      Mx_util.Pareto.sort_by
        (fun c -> float_of_int c.cost_gates)
        (best_traditional :: thinned)
