(* Shared builders for the test suites: small deterministic workloads
   and standard architectures, kept tiny so `dune runtest` stays fast. *)

module Params = Mx_mem.Params
module Mem_arch = Mx_mem.Mem_arch
module Region = Mx_trace.Region
module Synthetic = Mx_trace.Synthetic

let seed = 1234

(* Parallel arm of serial-vs-parallel comparisons; CI overrides it to
   exercise a different domain count (MEMOREX_TEST_JOBS=2). *)
let test_jobs =
  match Option.bind (Sys.getenv_opt "MEMOREX_TEST_JOBS") int_of_string_opt with
  | Some n when n >= 1 -> n
  | _ -> 4

(* Run [f] with the ambient metrics registry enabled and clean, then
   disable and clear it again so no other suite sees leftovers. *)
let with_global_metrics f =
  let m = Mx_util.Metrics.global in
  Mx_util.Metrics.reset m;
  Mx_util.Metrics.set_enabled m true;
  Fun.protect
    ~finally:(fun () ->
      Mx_util.Metrics.set_enabled m false;
      Mx_util.Metrics.reset m)
    f

let tiny_cache =
  { Params.c_size = 1024; c_line = 16; c_assoc = 2; c_latency = 1; c_policy = Params.default_policy }

let small_cache =
  { Params.c_size = 4096; c_line = 32; c_assoc = 2; c_latency = 1; c_policy = Params.default_policy }

let default_sbuf = List.hd Mx_mem.Module_lib.stream_buffers
let default_lldma = List.hd Mx_mem.Module_lib.lldmas

(* A mixed synthetic workload exercising every pattern class. *)
let mixed_workload ?(scale = 20000) () =
  Synthetic.generate ~name:"mixed" ~scale ~seed
    ~specs:
      [
        Synthetic.spec ~name:"stream" ~elems:4096 ~share:2.0 Region.Stream;
        Synthetic.spec ~name:"hot" ~elems:64 ~share:2.0 ~skew:1.2
          Region.Indexed;
        Synthetic.spec ~name:"table" ~elems:8192 ~share:1.5 ~skew:0.2
          Region.Random_access;
        Synthetic.spec ~name:"list" ~elems:4096 ~share:1.5
          Region.Self_indirect;
      ]

(* Streams-only workload (stream buffer coverage). *)
let stream_workload ?(scale = 8000) () =
  Synthetic.generate ~name:"streams" ~scale ~seed
    ~specs:
      [
        Synthetic.spec ~name:"in" ~elems:4096 ~write_frac:0.0 Region.Stream;
        Synthetic.spec ~name:"out" ~elems:4096 ~write_frac:1.0 Region.Stream;
      ]

(* All-default bindings architecture over a workload's regions. *)
let cache_only_arch ?(cache = small_cache) (w : Mx_trace.Workload.t) =
  Mem_arch.make ~label:"cache-only" ~cache
    ~bindings:
      (Array.make (List.length w.Mx_trace.Workload.regions) Mem_arch.To_cache)
    ()

(* Rich architecture: cache + sbuf + lldma + sram bound by region hint. *)
let rich_arch (w : Mx_trace.Workload.t) =
  let regions = w.Mx_trace.Workload.regions in
  let bindings = Array.make (List.length regions) Mem_arch.To_cache in
  let sram_bytes = ref 0 in
  List.iter
    (fun (r : Region.t) ->
      match r.hint with
      | Region.Stream -> bindings.(r.id) <- Mem_arch.To_sbuf
      | Region.Self_indirect -> bindings.(r.id) <- Mem_arch.To_lldma
      | Region.Indexed ->
        bindings.(r.id) <- Mem_arch.To_sram;
        sram_bytes := !sram_bytes + r.size
      | Region.Random_access | Region.Mixed -> ())
    regions;
  let sram =
    if !sram_bytes > 0 then Some (Mx_mem.Module_lib.sram_for_bytes !sram_bytes)
    else None
  in
  Mem_arch.make ~label:"rich" ~cache:small_cache ~sbuf:default_sbuf
    ~lldma:default_lldma ?sram ~bindings ()

let profile_of arch (w : Mx_trace.Workload.t) =
  let m = Mx_mem.Mem_sim.create arch ~regions:w.Mx_trace.Workload.regions in
  Mx_mem.Mem_sim.run m w.Mx_trace.Workload.trace

(* A naive connectivity: every BRG channel on its own component (cheap
   to build in tests). *)
let naive_conn (brg : Mx_connect.Brg.t) =
  let pairs =
    List.map
      (fun ch ->
        let cl = Mx_connect.Cluster.of_channel ch in
        let comp =
          if cl.Mx_connect.Cluster.offchip then
            Mx_connect.Component.by_name "off32"
          else Mx_connect.Component.by_name "ded32"
        in
        (cl, comp))
      brg.Mx_connect.Brg.channels
  in
  Mx_connect.Conn_arch.make pairs

(* Single shared buses: one AHB for everything on-chip, one off-chip
   bus for everything else. *)
let shared_conn (brg : Mx_connect.Brg.t) =
  let onchip = Mx_connect.Brg.onchip_channels brg
  and offchip = Mx_connect.Brg.offchip_channels brg in
  let pairs =
    (if onchip = [] then []
     else
       [
         ( List.fold_left
             (fun acc ch -> Mx_connect.Cluster.merge acc (Mx_connect.Cluster.of_channel ch))
             (Mx_connect.Cluster.of_channel (List.hd onchip))
             (List.tl onchip),
           Mx_connect.Component.by_name "ahb32" );
       ])
    @
    if offchip = [] then []
    else
      [
        ( List.fold_left
            (fun acc ch -> Mx_connect.Cluster.merge acc (Mx_connect.Cluster.of_channel ch))
            (Mx_connect.Cluster.of_channel (List.hd offchip))
            (List.tl offchip),
          Mx_connect.Component.by_name "off32" );
      ]
  in
  Mx_connect.Conn_arch.make pairs

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_true msg b = check_bool msg true b

(* One alcotest case for a property of the harness's runner: [count]
   cases at a fixed master seed with sizes cycling through
   [1 .. max_size], and the first counterexample reported at its
   shrunk size.  A property of the registered check [suite] is named
   "suite: property" and its failure carries the line that replays it
   under [conex check] (a case's seed depends on the property's name
   only); a test's own property reports its seed. *)
let prop_case ?(count = 100) ?suite (p : Mx_check.Runner.prop) =
  let module R = Mx_check.Runner in
  let name =
    Option.fold suite ~none:p.R.name ~some:(fun s -> s ^ ": " ^ p.R.name)
  in
  Alcotest.test_case name `Quick (fun () ->
      let r =
        R.run_suite ~master:0xC0DE ~count
          (Option.value suite ~default:p.R.name, [ p ])
      in
      match r.R.failures with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "%s: %s (shrunk from size %d to %d)\n  %s"
          f.R.prop_name f.R.message f.R.shrunk_from f.R.size
          (match suite with
          | Some s -> "repro: " ^ R.repro ~suite:s f
          | None -> Printf.sprintf "seed %d" f.R.seed))
