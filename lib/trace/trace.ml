(* meta layout: bit 0 = kind (0 read / 1 write), bits 1-2 = size code,
   bits 3.. = region id. *)

type t = {
  mutable addrs : int array;
  mutable metas : int array;
  mutable len : int;
}

let create ?(capacity = 4096) () =
  let capacity = max 16 capacity in
  { addrs = Array.make capacity 0; metas = Array.make capacity 0; len = 0 }

let length t = t.len

let grow t =
  let cap = Array.length t.addrs in
  let ncap = cap * 2 in
  let na = Array.make ncap 0 and nm = Array.make ncap 0 in
  Array.blit t.addrs 0 na 0 t.len;
  Array.blit t.metas 0 nm 0 t.len;
  t.addrs <- na;
  t.metas <- nm

let pack_meta ~size ~kind ~region =
  if region < 0 then invalid_arg "Trace.pack_meta: negative region id";
  let kbit = match kind with Access.Read -> 0 | Access.Write -> 1 in
  (region lsl 3) lor (Access.size_code size lsl 1) lor kbit

let meta_kind meta = if meta land 1 = 0 then Access.Read else Access.Write
let meta_size meta = Access.size_of_code ((meta lsr 1) land 3)
let meta_region meta = meta lsr 3

let add_packed t ~addr ~meta =
  if t.len = Array.length t.addrs then grow t;
  t.addrs.(t.len) <- addr;
  t.metas.(t.len) <- meta;
  t.len <- t.len + 1

let add t ~addr ~size ~kind ~region =
  if addr < 0 then invalid_arg "Trace.add: negative address";
  if region < 0 then invalid_arg "Trace.add: negative region id";
  add_packed t ~addr ~meta:(pack_meta ~size ~kind ~region)

let decode meta =
  let kind = if meta land 1 = 0 then Access.Read else Access.Write in
  let size = Access.size_of_code ((meta lsr 1) land 3) in
  let region = meta lsr 3 in
  (size, kind, region)

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get: index out of bounds";
  let size, kind, region = decode t.metas.(i) in
  { Access.addr = t.addrs.(i); size; kind; region }

let iter t ~f =
  for i = 0 to t.len - 1 do
    f (get t i)
  done

let iter_packed t ~f =
  for i = 0 to t.len - 1 do
    let meta = t.metas.(i) in
    let kind = if meta land 1 = 0 then Access.Read else Access.Write in
    let size = Access.size_of_code ((meta lsr 1) land 3) in
    f ~addr:t.addrs.(i) ~size ~kind ~region:(meta lsr 3)
  done

let iteri_packed t ~f =
  for i = 0 to t.len - 1 do
    let meta = t.metas.(i) in
    let kind = if meta land 1 = 0 then Access.Read else Access.Write in
    let size = Access.size_of_code ((meta lsr 1) land 3) in
    f i ~addr:t.addrs.(i) ~size ~kind ~region:(meta lsr 3)
  done

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Trace.sub: window out of bounds";
  let nt = create ~capacity:(max 16 len) () in
  Array.blit t.addrs pos nt.addrs 0 len;
  Array.blit t.metas pos nt.metas 0 len;
  nt.len <- len;
  nt

(* FNV-1a over the packed arrays (both words of every access), entirely
   in native-int arithmetic: deterministic across runs and domains,
   sensitive to any single-access change.  The offset basis is the FNV-1a
   64-bit basis truncated to OCaml's 63-bit native int.  The three hash_*
   primitives are exposed so {!Trace_stream} can fold the identical hash
   over a chunked source without materialising it. *)
let hash_basis = 0x3bf29ce484222325

let hash_step h ~addr ~meta =
  let h = (h lxor addr) * 0x100000001b3 in
  (h lxor meta) * 0x100000001b3

let hash_finish h = h land max_int

let content_hash t =
  let h = ref hash_basis in
  for i = 0 to t.len - 1 do
    h := hash_step !h ~addr:t.addrs.(i) ~meta:t.metas.(i)
  done;
  hash_finish !h

let backing t = (t.addrs, t.metas)

let total_bytes t =
  let acc = ref 0 in
  for i = 0 to t.len - 1 do
    acc := !acc + Access.size_of_code ((t.metas.(i) lsr 1) land 3)
  done;
  !acc
