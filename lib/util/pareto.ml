type 'a axis = 'a -> float

let dominates ~axes a b =
  let no_worse = List.for_all (fun f -> f a <= f b) axes in
  let strictly = List.exists (fun f -> f a < f b) axes in
  no_worse && strictly

module Flat = struct
  (* Members in offer order: member [m]'s coordinates are
     [coords.(m * dims) .. coords.(m * dims + dims - 1)].  The arrays
     double when full, so a front that has reached its size offers
     without allocating. *)
  type t = {
    dims : int;
    mutable coords : float array;
    mutable ids : int array;
    mutable size : int;
  }

  let create ~dims =
    if dims < 0 then invalid_arg "Pareto.Flat.create: dims < 0";
    { dims; coords = Array.make (16 * dims) 0.0; ids = Array.make 16 0; size = 0 }

  let size t = t.size
  let id t m = t.ids.(m)

  (* Members never dominate each other, and dominance is transitive: a
     point that dominates some member is dominated by none, so one pass
     can reject the point at its first dominating member (nothing has
     been removed yet) or compact away the members it dominates.  A NaN
     coordinate makes every [<=] false: such a point dominates nothing
     and nothing dominates it. *)
  let offer_at t (x : float array) off id =
    let dims = t.dims and c = t.coords in
    let rejected = ref false and w = ref 0 and m = ref 0 in
    while (not !rejected) && !m < t.size do
      let base = !m * dims in
      let m_le = ref true and m_lt = ref false in
      let x_le = ref true and x_lt = ref false in
      for k = 0 to dims - 1 do
        let a = c.(base + k) and b = x.(off + k) in
        if not (a <= b) then m_le := false;
        if a < b then m_lt := true;
        if not (b <= a) then x_le := false;
        if b < a then x_lt := true
      done;
      if !m_le && !m_lt then rejected := true
      else if not (!x_le && !x_lt) then begin
        if !w <> !m then begin
          for k = 0 to dims - 1 do
            c.((!w * dims) + k) <- c.(base + k)
          done;
          t.ids.(!w) <- t.ids.(!m)
        end;
        incr w
      end;
      incr m
    done;
    if not !rejected then begin
      if !w = Array.length t.ids then begin
        let grow a fill =
          let b = Array.make (2 * Array.length a) fill in
          Array.blit a 0 b 0 (Array.length a);
          b
        in
        t.coords <- grow t.coords 0.0;
        t.ids <- grow t.ids 0
      end;
      Array.blit x off t.coords (!w * dims) dims;
      t.ids.(!w) <- id;
      t.size <- !w + 1
    end

  let offer t x id = offer_at t x 0 id

  let merge ~into t =
    if t.dims <> into.dims then invalid_arg "Pareto.Flat.merge: dims differ";
    for m = 0 to t.size - 1 do
      offer_at into t.coords (m * t.dims) t.ids.(m)
    done
end

(* A fold over the incremental front, each design offered under its
   position in the list. *)
let front ~axes designs =
  let axes = Array.of_list axes in
  let t = Flat.create ~dims:(Array.length axes) in
  let x = Array.make (Array.length axes) 0.0 in
  List.iteri
    (fun i d ->
      Array.iteri (fun k f -> x.(k) <- f d) axes;
      Flat.offer t x i)
    designs;
  let keep = Array.make (List.length designs) false in
  for m = 0 to Flat.size t - 1 do
    keep.(Flat.id t m) <- true
  done;
  List.filteri (fun i _ -> keep.(i)) designs

let sort_by f l = List.stable_sort (fun a b -> Float.compare (f a) (f b)) l

let front2 ~x ~y designs =
  (* Sweep by increasing x, then increasing y; a point survives iff its y
     is strictly below every y seen so far (equal-x points: only the best
     y survives unless tied). *)
  let sorted =
    List.stable_sort
      (fun a b ->
        match Float.compare (x a) (x b) with
        | 0 -> Float.compare (y a) (y b)
        | c -> c)
      designs
  in
  let rec sweep best_y acc = function
    | [] -> List.rev acc
    | d :: rest ->
      if y d < best_y then sweep (y d) (d :: acc) rest
      else if y d = best_y && best_y < infinity then
        (* keep ties on y only when x also ties with the last kept point *)
        (match acc with
        | last :: _ when x last = x d -> sweep best_y (d :: acc) rest
        | _ -> sweep best_y acc rest)
      else sweep best_y acc rest
  in
  sweep infinity [] sorted

module Coverage = struct
  type report = {
    total : int;
    found : int;
    coverage_pct : float;
    avg_dist_pct : float array;
  }

  let eval ~axes ~equal ~reference ~explored =
    let naxes = List.length axes in
    let total = List.length reference in
    let missed =
      List.filter (fun r -> not (List.exists (equal r) explored)) reference
    in
    let found = total - List.length missed in
    let avg_dist = Array.make naxes 0.0 in
    (* An empty explored set covers nothing: report 0% (for a non-empty
       reference) with zero distances — there is no nearest explored
       point to measure against. *)
    (if missed <> [] && explored <> [] then begin
       (* Normalise each axis by the reference front's span so the
          nearest-neighbour search is scale-free. *)
       let spans =
         List.map
           (fun f ->
             let vs = List.map f reference in
             let lo = List.fold_left Float.min infinity vs in
             let hi = List.fold_left Float.max neg_infinity vs in
             let s = hi -. lo in
             if s <= 0.0 then 1.0 else s)
           axes
       in
       let dist2 a b =
         List.fold_left2
           (fun acc f s ->
             let d = (f a -. f b) /. s in
             acc +. (d *. d))
           0.0 axes spans
       in
       List.iter
         (fun r ->
           let nearest =
             List.fold_left
               (fun best e ->
                 match best with
                 | None -> Some e
                 | Some b -> if dist2 r e < dist2 r b then Some e else best)
               None explored
           in
           match nearest with
           | None -> assert false
           | Some e ->
             List.iteri
               (fun i f ->
                 let rv = f r in
                 let denom = if Float.abs rv > 1e-12 then Float.abs rv else 1.0 in
                 avg_dist.(i) <-
                   avg_dist.(i) +. (100.0 *. Float.abs (f e -. rv) /. denom))
               axes)
         missed;
       let m = float_of_int (List.length missed) in
       Array.iteri (fun i v -> avg_dist.(i) <- v /. m) avg_dist
     end);
    {
      total;
      found;
      coverage_pct =
        (if total = 0 then 100.0
         else 100.0 *. float_of_int found /. float_of_int total);
      avg_dist_pct = avg_dist;
    }
end

module Archive = struct
  type 'a t = {
    axes : 'a axis list;
    eps : float;
    capacity : int option;
    (* (insertion seq, value); list order is irrelevant — [seq] is the
       authoritative tie-breaker everywhere. *)
    mutable members : (int * 'a) list;
    mutable next_seq : int;
  }

  type 'a outcome = Added of { removed : 'a list; evicted : 'a list } | Rejected

  let create ~axes ?(eps = 0.0) ?capacity () =
    if axes = [] then invalid_arg "Pareto.Archive.create: no axes";
    if not (eps >= 0.0) then invalid_arg "Pareto.Archive.create: eps < 0";
    (match capacity with
    | Some c when c < 1 -> invalid_arg "Pareto.Archive.create: capacity < 1"
    | _ -> ());
    { axes; eps; capacity; members = []; next_seq = 0 }

  (* Relaxed dominance for thinning: [m] eps-dominates [v] when m is
     within a (1+eps) multiplicative slack of v on every axis and
     strictly inside it on at least one.  With [eps = 0] this is exactly
     [dominates] (so equal objective vectors are kept, matching [front]
     and [front2]); with [eps > 0] near-duplicates of an archived point
     are rejected.  Axes are assumed non-negative when [eps > 0]. *)
  let eps_dominates ~axes ~eps a b =
    let relax v = (1.0 +. eps) *. v in
    List.for_all (fun f -> f a <= relax (f b)) axes
    && List.exists (fun f -> f a < relax (f b)) axes

  let compare_members axes (sa, a) (sb, b) =
    let rec go = function
      | [] -> compare sa sb
      | f :: rest -> (
        match Float.compare (f a) (f b) with 0 -> go rest | c -> c)
    in
    go axes

  let front t =
    List.map snd (List.sort (compare_members t.axes) t.members)

  let size t = List.length t.members

  (* Capacity thinning: drop the most crowded member — smallest
     NSGA-II-style crowding distance (sum over axes of the span-
     normalised gap between its neighbours in that axis's order);
     extreme points score infinity and always survive.  Ties evict the
     newest (highest seq), so eviction is a pure function of the
     insertion sequence. *)
  let evict_one t =
    let arr = Array.of_list t.members in
    let n = Array.length arr in
    let crowd = Array.make n 0.0 in
    List.iter
      (fun f ->
        let idx = Array.init n (fun i -> i) in
        Array.sort
          (fun i j ->
            match Float.compare (f (snd arr.(i))) (f (snd arr.(j))) with
            | 0 -> compare (fst arr.(i)) (fst arr.(j))
            | c -> c)
          idx;
        let lo = f (snd arr.(idx.(0))) and hi = f (snd arr.(idx.(n - 1))) in
        let span = if hi -. lo <= 0.0 then 1.0 else hi -. lo in
        crowd.(idx.(0)) <- infinity;
        crowd.(idx.(n - 1)) <- infinity;
        for k = 1 to n - 2 do
          let gap =
            (f (snd arr.(idx.(k + 1))) -. f (snd arr.(idx.(k - 1)))) /. span
          in
          crowd.(idx.(k)) <- crowd.(idx.(k)) +. gap
        done)
      t.axes;
    let victim = ref 0 in
    for i = 1 to n - 1 do
      let c = Float.compare crowd.(i) crowd.(!victim) in
      if c < 0 || (c = 0 && fst arr.(i) > fst arr.(!victim)) then victim := i
    done;
    let _, v = arr.(!victim) in
    let vi = !victim in
    t.members <- List.filteri (fun i _ -> i <> vi) t.members;
    v

  let insert t v =
    if List.exists (fun (_, m) -> eps_dominates ~axes:t.axes ~eps:t.eps m v)
         t.members
    then Rejected
    else begin
      let dominated, kept =
        List.partition (fun (_, m) -> dominates ~axes:t.axes v m) t.members
      in
      let removed =
        List.map snd
          (List.sort (fun (a, _) (b, _) -> compare a b) dominated)
      in
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      t.members <- (seq, v) :: kept;
      let evicted =
        match t.capacity with
        | None -> []
        | Some c ->
          let out = ref [] in
          while List.length t.members > c do
            out := evict_one t :: !out
          done;
          List.rev !out
      in
      Added { removed; evicted }
    end

  let of_list ~axes ?eps ?capacity vs =
    let t = create ~axes ?eps ?capacity () in
    List.iter (fun v -> ignore (insert t v)) vs;
    t
end
