(* Pluggable per-set victim selection for the policies that depend on
   way placement.  One [t] tracks the way state of a single cache set;
   the cache owns an array of them, one per set.  True LRU and FIFO
   need no state here: the cache keeps their sets in order itself.

   The contract with Cache.lookup:
   - [touch] is called on every hit, with the hit way;
   - [victim] is consulted only when every way of the set holds a valid
     line (the cache claims invalid ways itself, lowest index first);
   - [fill] is called on every miss fill, with the filled way (whether
     it was an invalid way or the policy's victim).

   All state transitions are deterministic, and all victim choices
   break remaining ties toward the lowest way index. *)

type state =
  (* Tree-PLRU: ways-1 bits, heap-indexed (node n has children 2n+1 /
     2n+2; leaf k is heap index ways-1+k).  A false bit sends the
     victim walk left, true right; touching a way points every bit on
     its root path at the sibling subtree. *)
  | Plru of { bits : bool array }
  (* QLRU: one 2-bit age per way.  A hit rewrites the age through the
     4-entry hit table; a fill inserts at the fill age.  The victim is
     the lowest-index way of age 3, after shifting all ages up by
     (3 - max age) when no way is at age 3. *)
  | Qlru of { ages : int array; hit_ages : int array; fill_age : int }
  (* MRU_N (bit-PLRU with new-block insertion): one bit per way.  A hit
     sets the way's bit, clearing all others first if that would
     saturate the set; a fill leaves the new block's bit clear.  The
     victim is the lowest-index way with a clear bit. *)
  | Mru of { bits : bool array }

type t = { policy : Params.policy; ways : int; state : state }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create policy ~ways =
  if ways <= 0 then invalid_arg "Replacement.create: non-positive ways";
  let state =
    match (policy : Params.policy) with
    | Params.True_lru | Params.Fifo ->
      invalid_arg
        "Replacement.create: the cache keeps true-lru and fifo in order"
    | Params.Tree_plru ->
      if not (is_pow2 ways) then
        invalid_arg "Replacement.create: tree-plru needs power-of-two ways";
      Plru { bits = Array.make (max 0 (ways - 1)) false }
    | Params.Qlru_h11_m1 ->
      Qlru { ages = Array.make ways 3; hit_ages = [| 0; 0; 1; 1 |]; fill_age = 1 }
    | Params.Qlru_h00_m0 ->
      Qlru { ages = Array.make ways 3; hit_ages = [| 0; 0; 0; 0 |]; fill_age = 0 }
    | Params.Mru_n -> Mru { bits = Array.make ways false }
  in
  { policy; ways; state }

let policy t = t.policy
let ways t = t.ways

let plru_touch bits ways ~way =
  let n = ref (ways - 1 + way) in
  while !n > 0 do
    let parent = (!n - 1) / 2 in
    (* point the parent at the sibling subtree *)
    bits.(parent) <- !n = (2 * parent) + 1;
    n := parent
  done

let mru_set bits ~way =
  bits.(way) <- true;
  if Array.for_all (fun b -> b) bits then begin
    Array.fill bits 0 (Array.length bits) false;
    bits.(way) <- true
  end

let touch t ~way =
  if way < 0 || way >= t.ways then invalid_arg "Replacement.touch: bad way";
  match t.state with
  | Plru p -> plru_touch p.bits t.ways ~way
  | Qlru q -> q.ages.(way) <- q.hit_ages.(q.ages.(way))
  | Mru m -> mru_set m.bits ~way

let fill t ~way =
  if way < 0 || way >= t.ways then invalid_arg "Replacement.fill: bad way";
  match t.state with
  | Plru p -> plru_touch p.bits t.ways ~way
  | Qlru q -> q.ages.(way) <- q.fill_age
  | Mru m -> m.bits.(way) <- false

let victim t =
  match t.state with
  | Plru p ->
    let n = ref 0 in
    while !n < t.ways - 1 do
      n := (2 * !n) + 1 + (if p.bits.(!n) then 1 else 0)
    done;
    !n - (t.ways - 1)
  | Qlru q ->
    let max_age = Array.fold_left max 0 q.ages in
    if max_age < 3 then
      for i = 0 to t.ways - 1 do
        q.ages.(i) <- q.ages.(i) + 3 - max_age
      done;
    let v = ref 0 in
    (try
       for i = 0 to t.ways - 1 do
         if q.ages.(i) = 3 then begin
           v := i;
           raise Exit
         end
       done
     with Exit -> ());
    !v
  | Mru m ->
    let v = ref 0 in
    (try
       for i = 0 to t.ways - 1 do
         if not m.bits.(i) then begin
           v := i;
           raise Exit
         end
       done
     with Exit -> ());
    !v

(* Hardware state-bit budget per set, charged by the cost model.  For
   True_lru this is a [log2 ways]-bit recency rank per way — exactly
   the historical [log2 assoc] bits per line — so default-policy gate
   counts are unchanged by the policy refactor. *)
let state_bits_per_set (policy : Params.policy) ~ways =
  if ways <= 0 then invalid_arg "Replacement.state_bits_per_set";
  match policy with
  | Params.True_lru -> ways * Params.log2i ways
  | Params.Fifo -> Params.log2i ways
  | Params.Tree_plru -> ways - 1
  | Params.Qlru_h11_m1 | Params.Qlru_h00_m0 -> 2 * ways
  | Params.Mru_n -> ways
