module Access = Mx_trace.Access
module Trace = Mx_trace.Trace
module Layout = Mx_trace.Layout
module Region = Mx_trace.Region
module Runner = Mx_check.Runner
module Prng = Mx_util.Prng

(* -- Access ---------------------------------------------------------- *)

let test_size_codes_roundtrip () =
  List.iter
    (fun s -> Helpers.check_int "roundtrip" s (Access.size_of_code (Access.size_code s)))
    [ 1; 2; 4; 8 ]

let test_size_code_rejects () =
  Alcotest.check_raises "width 3"
    (Invalid_argument "Access.size_code: bad width 3") (fun () ->
      ignore (Access.size_code 3))

(* -- Trace ----------------------------------------------------------- *)

let test_add_get () =
  let t = Trace.create () in
  Trace.add t ~addr:0x1000 ~size:4 ~kind:Access.Read ~region:2;
  Trace.add t ~addr:0x2000 ~size:1 ~kind:Access.Write ~region:5;
  Helpers.check_int "length" 2 (Trace.length t);
  let a0 = Trace.get t 0 and a1 = Trace.get t 1 in
  Helpers.check_int "addr0" 0x1000 a0.Access.addr;
  Helpers.check_int "size0" 4 a0.Access.size;
  Helpers.check_true "kind0" (a0.Access.kind = Access.Read);
  Helpers.check_int "region0" 2 a0.Access.region;
  Helpers.check_int "addr1" 0x2000 a1.Access.addr;
  Helpers.check_true "kind1" (a1.Access.kind = Access.Write);
  Helpers.check_int "region1" 5 a1.Access.region

let test_get_out_of_bounds () =
  let t = Trace.create () in
  Alcotest.check_raises "oob" (Invalid_argument "Trace.get: index out of bounds")
    (fun () -> ignore (Trace.get t 0))

let test_growth () =
  let t = Trace.create ~capacity:4 () in
  for i = 0 to 999 do
    Trace.add t ~addr:i ~size:2 ~kind:Access.Read ~region:0
  done;
  Helpers.check_int "grown length" 1000 (Trace.length t);
  Helpers.check_int "last addr" 999 (Trace.get t 999).Access.addr

let test_iter_matches_packed () =
  let t = Trace.create () in
  for i = 0 to 99 do
    Trace.add t ~addr:(i * 8) ~size:(if i mod 2 = 0 then 4 else 8)
      ~kind:(if i mod 3 = 0 then Access.Write else Access.Read)
      ~region:(i mod 7)
  done;
  let via_iter = ref [] and via_packed = ref [] in
  Trace.iter t ~f:(fun a ->
      via_iter := (a.Access.addr, a.Access.size, a.Access.kind, a.Access.region) :: !via_iter);
  Trace.iter_packed t ~f:(fun ~addr ~size ~kind ~region ->
      via_packed := (addr, size, kind, region) :: !via_packed);
  Helpers.check_true "iter = iter_packed" (!via_iter = !via_packed)

let test_iteri_indices () =
  let t = Trace.create () in
  for i = 0 to 9 do
    Trace.add t ~addr:i ~size:1 ~kind:Access.Read ~region:0
  done;
  let seen = ref [] in
  Trace.iteri_packed t ~f:(fun i ~addr ~size:_ ~kind:_ ~region:_ ->
      seen := (i, addr) :: !seen);
  Helpers.check_true "indices match addresses"
    (List.for_all (fun (i, a) -> i = a) !seen);
  Helpers.check_int "count" 10 (List.length !seen)

let test_sub () =
  let t = Trace.create () in
  for i = 0 to 99 do
    Trace.add t ~addr:i ~size:1 ~kind:Access.Read ~region:0
  done;
  let s = Trace.sub t ~pos:10 ~len:5 in
  Helpers.check_int "sub length" 5 (Trace.length s);
  Helpers.check_int "sub first" 10 (Trace.get s 0).Access.addr;
  Helpers.check_int "sub last" 14 (Trace.get s 4).Access.addr

let test_sub_bounds () =
  let t = Trace.create () in
  Trace.add t ~addr:0 ~size:1 ~kind:Access.Read ~region:0;
  Alcotest.check_raises "oob sub" (Invalid_argument "Trace.sub: window out of bounds")
    (fun () -> ignore (Trace.sub t ~pos:0 ~len:2))

let test_total_bytes () =
  let t = Trace.create () in
  Trace.add t ~addr:0 ~size:4 ~kind:Access.Read ~region:0;
  Trace.add t ~addr:0 ~size:8 ~kind:Access.Write ~region:0;
  Helpers.check_int "bytes" 12 (Trace.total_bytes t)

(* -- Layout / Region -------------------------------------------------- *)

let test_layout_alloc () =
  let lay = Layout.create ~base:0x1000 ~align:64 () in
  let a = Layout.alloc lay ~name:"a" ~elems:10 ~elem_size:4 ~hint:Region.Stream in
  let b = Layout.alloc lay ~name:"b" ~elems:100 ~elem_size:8 ~hint:Region.Indexed in
  Helpers.check_int "a base" 0x1000 a.Region.base;
  Helpers.check_int "a id" 0 a.Region.id;
  Helpers.check_int "b id" 1 b.Region.id;
  Helpers.check_true "b starts after a"
    (b.Region.base >= a.Region.base + a.Region.size);
  Helpers.check_int "alignment" 0 (b.Region.base mod 64)

let test_layout_no_overlap () =
  let lay = Layout.create () in
  let rs =
    List.init 10 (fun i ->
        Layout.alloc lay ~name:(Printf.sprintf "r%d" i) ~elems:(i + 1)
          ~elem_size:4 ~hint:Region.Stream)
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j then
            Helpers.check_true "disjoint"
              (a.Region.base + a.Region.size <= b.Region.base
              || b.Region.base + b.Region.size <= a.Region.base))
        rs)
    rs

let test_layout_find () =
  let lay = Layout.create () in
  let a = Layout.alloc lay ~name:"a" ~elems:16 ~elem_size:4 ~hint:Region.Stream in
  (match Layout.find lay ~addr:(a.Region.base + 8) with
  | Some r -> Helpers.check_int "found a" a.Region.id r.Region.id
  | None -> Alcotest.fail "expected to find region");
  Helpers.check_true "miss below base" (Layout.find lay ~addr:0 = None)

let test_layout_bad_align () =
  Alcotest.check_raises "align 3"
    (Invalid_argument "Layout.create: align not a power of 2") (fun () ->
      ignore (Layout.create ~align:3 ()))

let test_region_elem_addr () =
  let lay = Layout.create ~base:0x100 ~align:64 () in
  let r = Layout.alloc lay ~name:"r" ~elems:4 ~elem_size:8 ~hint:Region.Stream in
  Helpers.check_int "elem 0" 0x100 (Region.elem_addr r 0);
  Helpers.check_int "elem 3" (0x100 + 24) (Region.elem_addr r 3)

let test_region_elem_addr_oob () =
  let lay = Layout.create ~base:0x100 ~align:32 () in
  let r = Layout.alloc lay ~name:"r" ~elems:4 ~elem_size:8 ~hint:Region.Stream in
  Helpers.check_true "contains last byte"
    (Region.contains r (0x100 + 31));
  Alcotest.check_raises "element past end"
    (Invalid_argument "Region.elem_addr: element 4 outside r") (fun () ->
      ignore (Region.elem_addr r 4))

(* [size] accesses (address in [0, 0xFFFFFF], any size code and kind,
   region in [0, 1000]), one case per length 1..200 *)
let prop_trace_roundtrip =
  Runner.prop ~max_size:200 "trace add/get roundtrip" (fun ~seed ~size ->
      let g = Prng.create ~seed in
      let entries =
        List.init size (fun _ ->
            let addr = Prng.int_in g ~lo:0 ~hi:0xFFFFFF in
            let width = Access.size_of_code (Prng.int g ~bound:4) in
            let kind = if Prng.bool g ~p:0.5 then Access.Write else Access.Read in
            let region = Prng.int_in g ~lo:0 ~hi:1000 in
            { Access.addr; size = width; kind; region })
      in
      let t = Trace.create () in
      List.iter
        (fun (a : Access.t) ->
          Trace.add t ~addr:a.addr ~size:a.size ~kind:a.kind ~region:a.region)
        entries;
      let changed = List.filteri (fun i a -> Trace.get t i <> a) entries in
      Runner.check (changed = []) "%d of %d accesses read back changed"
        (List.length changed) size)

let suite =
  ( "trace",
    [
      Alcotest.test_case "size codes" `Quick test_size_codes_roundtrip;
      Alcotest.test_case "size code rejects" `Quick test_size_code_rejects;
      Alcotest.test_case "add/get" `Quick test_add_get;
      Alcotest.test_case "get oob" `Quick test_get_out_of_bounds;
      Alcotest.test_case "growth" `Quick test_growth;
      Alcotest.test_case "iter = packed" `Quick test_iter_matches_packed;
      Alcotest.test_case "iteri indices" `Quick test_iteri_indices;
      Alcotest.test_case "sub" `Quick test_sub;
      Alcotest.test_case "sub bounds" `Quick test_sub_bounds;
      Alcotest.test_case "total bytes" `Quick test_total_bytes;
      Alcotest.test_case "layout alloc" `Quick test_layout_alloc;
      Alcotest.test_case "layout no overlap" `Quick test_layout_no_overlap;
      Alcotest.test_case "layout find" `Quick test_layout_find;
      Alcotest.test_case "layout bad align" `Quick test_layout_bad_align;
      Alcotest.test_case "region elem addr" `Quick test_region_elem_addr;
      Alcotest.test_case "region elem oob" `Quick test_region_elem_addr_oob;
      Helpers.prop_case ~count:200 prop_trace_roundtrip;
    ] )
