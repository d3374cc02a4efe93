(* A bounded, thread-safe, content-addressed result cache.

   Entries are keyed by canonical strings (structural fingerprints) and
   live in one hash table guarded by a mutex.  Lookups that miss insert
   a [Pending] marker and compute outside the lock; concurrent lookups
   of the same key block on a condition variable until the first
   computation publishes ([Ready]) — the "single-flight" property that
   makes compute counts identical at every Task_pool jobs level.

   Eviction is exact LRU over [Ready] entries: they sit on an intrusive
   doubly-linked recency list (least recently used first), a lookup
   moves its entry to the back, and an insert that pushes the table
   past capacity unlinks entries from the front — O(1) per eviction.
   [Pending] entries are never on the list, so never evicted (a waiter
   may hold a reference to them). *)

type 'a state = Pending | Ready of 'a

(* [prev]/[next] link a [Ready] entry into the recency list; an entry
   off the list points at itself. *)
type 'a entry = {
  key : string;
  mutable state : 'a state;
  mutable prev : 'a entry;
  mutable next : 'a entry;
}

type stats = { hits : int; misses : int; evictions : int; size : int }

type 'a t = {
  capacity : int;
  mu : Mutex.t;
  cond : Condition.t;
  tbl : (string, 'a entry) Hashtbl.t;
  lru : 'a entry;
      (* sentinel of the circular recency list: [lru.next] is the least
         recently used entry, [lru.prev] the most recent *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  registry : Metrics.t;
  hits_metric : string option;
  misses_metric : string option;
  evictions_metric : string option;
}

let detached key state =
  let rec e = { key; state; prev = e; next = e } in
  e

let create ?(registry = Metrics.global) ?metrics_prefix ~capacity () =
  let metric what = Option.map (fun p -> p ^ "." ^ what) metrics_prefix in
  {
    capacity;
    mu = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create (max 16 (min 4096 capacity));
    lru = detached "" Pending;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    registry;
    hits_metric = metric "hits";
    misses_metric = metric "misses";
    evictions_metric = metric "evictions";
  }

let capacity t = t.capacity
let enabled t = t.capacity > 0

let record t = function
  | None -> ()
  | Some name -> Metrics.incr t.registry name

let hit t =
  Atomic.incr t.hits;
  record t t.hits_metric

let miss t =
  Atomic.incr t.misses;
  record t t.misses_metric

(* The recency list, called with [t.mu] held. *)
let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev;
  e.prev <- e;
  e.next <- e

let push_back t e =
  let last = t.lru.prev in
  e.prev <- last;
  e.next <- t.lru;
  last.next <- e;
  t.lru.prev <- e

let touch t e =
  unlink e;
  push_back t e

(* Whether [e] is still the table's entry for its key: [clear] may have
   dropped it, and a later lookup may have bound the key afresh. *)
let is_current t e =
  match Hashtbl.find_opt t.tbl e.key with Some e' -> e' == e | None -> false

(* Drop the least-recently-used Ready entries until the table fits the
   capacity again; when only Pending entries remain, the overshoot is
   tolerated.  Called with [t.mu] held. *)
let evict_to_capacity t =
  while Hashtbl.length t.tbl > t.capacity && t.lru.next != t.lru do
    let victim = t.lru.next in
    unlink victim;
    Hashtbl.remove t.tbl victim.key;
    Atomic.incr t.evictions;
    record t t.evictions_metric
  done

type 'a slot = 'a entry

let fill t e v =
  Mutex.lock t.mu;
  e.state <- Ready v;
  if is_current t e then begin
    push_back t e;
    evict_to_capacity t
  end;
  Condition.broadcast t.cond;
  Mutex.unlock t.mu

(* never cache a failure: drop the marker so a later call retries, and
   wake the waiters (they will recompute); a filled slot stays *)
let abandon t e =
  Mutex.lock t.mu;
  (match e.state with
  | Pending -> if is_current t e then Hashtbl.remove t.tbl e.key
  | Ready _ -> ());
  Condition.broadcast t.cond;
  Mutex.unlock t.mu

let claim t ~key =
  if not (enabled t) then begin
    miss t;
    `Claimed (detached key Pending)
  end
  else begin
    Mutex.lock t.mu;
    match Hashtbl.find_opt t.tbl key with
    | Some ({ state = Ready v; _ } as e) ->
      touch t e;
      Mutex.unlock t.mu;
      hit t;
      `Hit v
    | Some { state = Pending; _ } ->
      Mutex.unlock t.mu;
      `Busy
    | None ->
      let e = detached key Pending in
      Hashtbl.add t.tbl key e;
      Mutex.unlock t.mu;
      miss t;
      `Claimed e
  end

(* Block until no computation of [key] is in flight. *)
let await t ~key =
  Mutex.lock t.mu;
  let rec go () =
    match Hashtbl.find_opt t.tbl key with
    | Some { state = Pending; _ } ->
      Condition.wait t.cond t.mu;
      go ()
    | Some { state = Ready _; _ } | None -> ()
  in
  go ();
  Mutex.unlock t.mu

let rec find_or_compute_prov t ~key f =
  match claim t ~key with
  | `Hit v -> (v, true)
  | `Claimed e -> (
    match f () with
    | v ->
      fill t e v;
      (v, false)
    | exception exn ->
      abandon t e;
      raise exn)
  | `Busy ->
    (* another domain is computing this key: wait for it *)
    await t ~key;
    find_or_compute_prov t ~key f

let find_or_compute t ~key f = fst (find_or_compute_prov t ~key f)

let peek t ~key =
  if not (enabled t) then None
  else begin
    Mutex.lock t.mu;
    let r =
      match Hashtbl.find_opt t.tbl key with
      | Some ({ state = Ready v; _ } as e) ->
        touch t e;
        Some v
      | Some { state = Pending; _ } | None -> None
    in
    Mutex.unlock t.mu;
    if r <> None then hit t;
    r
  end

let refresh t ~key =
  if enabled t then begin
    Mutex.lock t.mu;
    (match Hashtbl.find_opt t.tbl key with
    | Some ({ state = Ready _; _ } as e) -> touch t e
    | Some { state = Pending; _ } | None -> ());
    Mutex.unlock t.mu
  end

let length t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.mu;
  n

let stats t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
    size = length t;
  }

let clear t =
  Mutex.lock t.mu;
  Hashtbl.reset t.tbl;
  t.lru.prev <- t.lru;
  t.lru.next <- t.lru;
  (* no waiter can be parked on a cleared Pending entry's key without
     the computing domain still holding the entry record: it publishes
     into its own record and broadcasts, so waiters re-check and simply
     miss afterwards *)
  Condition.broadcast t.cond;
  Mutex.unlock t.mu
