type policy =
  | True_lru
  | Fifo
  | Tree_plru
  | Qlru_h11_m1
  | Qlru_h00_m0
  | Mru_n

type cache = {
  c_size : int;
  c_line : int;
  c_assoc : int;
  c_latency : int;
  c_policy : policy;
}

let default_policy = True_lru

let all_policies =
  [ True_lru; Fifo; Tree_plru; Qlru_h11_m1; Qlru_h00_m0; Mru_n ]

let policy_to_string = function
  | True_lru -> "true_lru"
  | Fifo -> "fifo"
  | Tree_plru -> "tree_plru"
  | Qlru_h11_m1 -> "qlru_h11_m1"
  | Qlru_h00_m0 -> "qlru_h00_m0"
  | Mru_n -> "mru_n"

(* Short unambiguous code used inside structural fingerprints. *)
let policy_tag = function
  | True_lru -> "L"
  | Fifo -> "F"
  | Tree_plru -> "P"
  | Qlru_h11_m1 -> "Q1"
  | Qlru_h00_m0 -> "Q0"
  | Mru_n -> "M"

(* CPU-style preset names (CacheTrace's --cpu= switch): each maps a
   microarchitecture to the replacement family reverse-engineered for
   its L1/L2. *)
let policy_presets =
  [
    ("core2", Tree_plru);
    ("nehalem", Mru_n);
    ("sandybridge", Mru_n);
    ("haswell", Qlru_h11_m1);
    ("skylake", Qlru_h11_m1);
    ("coffeelake", Qlru_h00_m0);
  ]

let policy_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let canon =
    String.map (function '-' -> '_' | c -> c) s
  in
  match
    List.find_opt (fun p -> policy_to_string p = canon) all_policies
  with
  | Some p -> Some p
  | None -> List.assoc_opt canon policy_presets
type sram = { s_size : int; s_latency : int }

type stream_buffer = {
  sb_streams : int;
  sb_line : int;
  sb_depth : int;
  sb_latency : int;
}

type lldma = { ll_entries : int; ll_elem : int; ll_max_gap : int; ll_latency : int }
type victim = { v_entries : int; v_latency : int }
type write_buffer = { wb_entries : int; wb_drain : int }
type dram = { d_banks : int; d_row : int; d_cas : int; d_rcd : int; d_rp : int }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2i n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

let validate_cache c =
  if not (is_pow2 c.c_size) then invalid_arg "cache size must be a power of two";
  if not (is_pow2 c.c_line) then invalid_arg "cache line must be a power of two";
  if c.c_line > c.c_size then invalid_arg "cache line larger than cache";
  if c.c_assoc <= 0 then invalid_arg "cache associativity must be positive";
  let lines = c.c_size / c.c_line in
  if lines mod c.c_assoc <> 0 then
    invalid_arg "cache lines not divisible by associativity";
  if c.c_latency <= 0 then invalid_arg "cache latency must be positive";
  if c.c_policy = Tree_plru && not (is_pow2 c.c_assoc) then
    invalid_arg "tree-plru requires a power-of-two associativity"

let validate_dram d =
  if d.d_banks <= 0 || not (is_pow2 d.d_banks) then
    invalid_arg "dram banks must be a positive power of two";
  if not (is_pow2 d.d_row) then invalid_arg "dram row must be a power of two";
  if d.d_cas <= 0 || d.d_rcd < 0 || d.d_rp < 0 then
    invalid_arg "dram timings must be non-negative (cas positive)"

let validate_victim v =
  if v.v_entries <= 0 || v.v_latency < 0 then
    invalid_arg "victim cache geometry must be positive"

let validate_write_buffer w =
  if w.wb_entries <= 0 || w.wb_drain <= 0 then
    invalid_arg "write buffer geometry must be positive"

let pp_cache fmt c =
  (* the default policy is left implicit so pre-policy output (labels,
     logs, golden pins) is unchanged for existing designs *)
  if c.c_policy = default_policy then
    Format.fprintf fmt "cache(%dKB,%dB line,%d-way,%dcy)" (c.c_size / 1024)
      c.c_line c.c_assoc c.c_latency
  else
    Format.fprintf fmt "cache(%dKB,%dB line,%d-way,%dcy,%s)" (c.c_size / 1024)
      c.c_line c.c_assoc c.c_latency
      (policy_to_string c.c_policy)

let pp_sram fmt s =
  Format.fprintf fmt "sram(%dB,%dcy)" s.s_size s.s_latency

let pp_stream_buffer fmt s =
  Format.fprintf fmt "sbuf(%dx%dB,depth %d,%dcy)" s.sb_streams s.sb_line
    s.sb_depth s.sb_latency

let pp_lldma fmt l =
  Format.fprintf fmt "lldma(%d entries,%dB elem,gap %d,%dcy)" l.ll_entries
    l.ll_elem l.ll_max_gap l.ll_latency

let pp_victim fmt v =
  Format.fprintf fmt "victim(%d lines,%dcy)" v.v_entries v.v_latency

let pp_write_buffer fmt w =
  Format.fprintf fmt "wbuf(%d slots,drain %d)" w.wb_entries w.wb_drain
