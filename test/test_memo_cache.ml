(* Mx_util.Memo_cache: hit/miss accounting, LRU eviction, the disabled
   (capacity 0) mode, failure transparency, and the single-flight
   guarantee under Task_pool parallelism. *)

module Memo_cache = Mx_util.Memo_cache
module Metrics = Mx_util.Metrics

let fresh ?metrics_prefix ?registry ~capacity () =
  let registry =
    match registry with Some r -> r | None -> Metrics.create ()
  in
  Memo_cache.create ~registry ?metrics_prefix ~capacity ()

let test_miss_then_hit () =
  let c = fresh ~capacity:8 () in
  let computes = ref 0 in
  let f () =
    incr computes;
    42
  in
  Helpers.check_int "first lookup computes" 42
    (Memo_cache.find_or_compute c ~key:"k" f);
  Helpers.check_int "second lookup served from cache" 42
    (Memo_cache.find_or_compute c ~key:"k" f);
  Helpers.check_int "computed exactly once" 1 !computes;
  let s = Memo_cache.stats c in
  Helpers.check_int "one hit" 1 s.Memo_cache.hits;
  Helpers.check_int "one miss" 1 s.Memo_cache.misses;
  Helpers.check_int "one resident entry" 1 s.Memo_cache.size

let test_distinct_keys_distinct_entries () =
  let c = fresh ~capacity:8 () in
  let v key = Memo_cache.find_or_compute c ~key (fun () -> String.length key) in
  Helpers.check_int "a" 1 (v "a");
  Helpers.check_int "bb" 2 (v "bb");
  Helpers.check_int "a again" 1 (v "a");
  Helpers.check_int "two entries" 2 (Memo_cache.length c)

let test_peek () =
  let c = fresh ~capacity:8 () in
  Helpers.check_true "peek on empty finds nothing"
    (Memo_cache.peek c ~key:"k" = None);
  Helpers.check_int "peek miss not counted as hit" 0
    (Memo_cache.stats c).Memo_cache.hits;
  ignore (Memo_cache.find_or_compute c ~key:"k" (fun () -> 7));
  Helpers.check_true "peek finds the cached value"
    (Memo_cache.peek c ~key:"k" = Some 7);
  Helpers.check_int "peek success counted as hit" 1
    (Memo_cache.stats c).Memo_cache.hits

let test_capacity_zero_disables () =
  let c = fresh ~capacity:0 () in
  let computes = ref 0 in
  let f () =
    incr computes;
    1
  in
  ignore (Memo_cache.find_or_compute c ~key:"k" f);
  ignore (Memo_cache.find_or_compute c ~key:"k" f);
  Helpers.check_true "disabled cache reports disabled"
    (not (Memo_cache.enabled c));
  Helpers.check_int "every lookup recomputes" 2 !computes;
  Helpers.check_int "nothing retained" 0 (Memo_cache.length c);
  Helpers.check_int "lookups counted as misses" 2
    (Memo_cache.stats c).Memo_cache.misses

let test_lru_eviction () =
  let c = fresh ~capacity:2 () in
  let computes = Hashtbl.create 8 in
  let f key () =
    Hashtbl.replace computes key (1 + Option.value ~default:0 (Hashtbl.find_opt computes key));
    key
  in
  ignore (Memo_cache.find_or_compute c ~key:"a" (f "a"));
  ignore (Memo_cache.find_or_compute c ~key:"b" (f "b"));
  (* refresh a so b becomes the LRU victim *)
  ignore (Memo_cache.find_or_compute c ~key:"a" (f "a"));
  ignore (Memo_cache.find_or_compute c ~key:"c" (f "c"));
  Helpers.check_int "capacity respected" 2 (Memo_cache.length c);
  Helpers.check_int "one eviction" 1 (Memo_cache.stats c).Memo_cache.evictions;
  Helpers.check_true "a survived (recently used)"
    (Memo_cache.peek c ~key:"a" <> None);
  Helpers.check_true "b evicted (least recently used)"
    (Memo_cache.peek c ~key:"b" = None);
  ignore (Memo_cache.find_or_compute c ~key:"b" (f "b"));
  Helpers.check_int "b recomputed after eviction" 2 (Hashtbl.find computes "b");
  Helpers.check_int "a never recomputed" 1 (Hashtbl.find computes "a")

(* Past capacity every insert evicts exactly the least recently used
   entry, hits included in the recency order. *)
let test_lru_survivors_under_overflow () =
  let capacity = 64 and n = 1000 in
  let c = fresh ~capacity () in
  let last_use = Hashtbl.create n and tick = ref 0 in
  let lookup key =
    ignore (Memo_cache.find_or_compute c ~key (fun () -> key));
    incr tick;
    Hashtbl.replace last_use key !tick
  in
  (* the model: the [capacity] most recently used keys, newest first *)
  let resident () =
    Hashtbl.fold (fun k t acc -> (t, k) :: acc) last_use []
    |> List.sort (fun a b -> compare b a)
    |> List.filteri (fun i _ -> i < capacity)
    |> List.map snd
  in
  for i = 0 to n - 1 do
    lookup (string_of_int i);
    (* every third insert, hit the least recently used resident key *)
    if i mod 3 = 2 then begin
      let r = resident () in
      lookup (List.nth r (List.length r - 1))
    end
  done;
  let s = Memo_cache.stats c in
  Helpers.check_int "every hit found its key" (n / 3) s.Memo_cache.hits;
  Helpers.check_int "one miss per distinct key" n s.Memo_cache.misses;
  Helpers.check_int "evictions = N - C" (n - capacity) s.Memo_cache.evictions;
  Helpers.check_int "capacity respected" capacity (Memo_cache.length c);
  let survivors =
    List.filter
      (fun i -> Memo_cache.peek c ~key:(string_of_int i) <> None)
      (List.init n Fun.id)
  in
  Alcotest.(check (list string))
    "exactly the C most recently used keys survive"
    (List.sort compare (resident ()))
    (List.sort compare (List.map string_of_int survivors))

let test_failure_not_cached () =
  let c = fresh ~capacity:8 () in
  let attempts = ref 0 in
  let flaky () =
    incr attempts;
    if !attempts = 1 then failwith "transient";
    99
  in
  (try ignore (Memo_cache.find_or_compute c ~key:"k" flaky)
   with Failure _ -> ());
  Helpers.check_int "failed entry not retained" 0 (Memo_cache.length c);
  Helpers.check_int "retry recomputes and succeeds" 99
    (Memo_cache.find_or_compute c ~key:"k" flaky);
  Helpers.check_int "two attempts" 2 !attempts

let test_clear_keeps_counters () =
  let c = fresh ~capacity:8 () in
  ignore (Memo_cache.find_or_compute c ~key:"k" (fun () -> 1));
  ignore (Memo_cache.find_or_compute c ~key:"k" (fun () -> 1));
  Memo_cache.clear c;
  Helpers.check_int "entries dropped" 0 (Memo_cache.length c);
  let s = Memo_cache.stats c in
  Helpers.check_int "hits kept across clear" 1 s.Memo_cache.hits;
  Helpers.check_int "misses kept across clear" 1 s.Memo_cache.misses

let test_metrics_recording () =
  let registry = Metrics.create ~enabled:true () in
  let c = fresh ~registry ~metrics_prefix:"eval.cache" ~capacity:1 () in
  ignore (Memo_cache.find_or_compute c ~key:"a" (fun () -> 1));
  ignore (Memo_cache.find_or_compute c ~key:"a" (fun () -> 1));
  ignore (Memo_cache.find_or_compute c ~key:"b" (fun () -> 2));
  Helpers.check_int "hits counter" 1
    (Metrics.counter_value registry "eval.cache.hits");
  Helpers.check_int "misses counter" 2
    (Metrics.counter_value registry "eval.cache.misses");
  Helpers.check_int "evictions counter" 1
    (Metrics.counter_value registry "eval.cache.evictions")

(* The single-flight property: many domains racing on a small key set
   still compute each key exactly once. *)
let test_single_flight_parallel () =
  let c = fresh ~capacity:64 () in
  let computes = Atomic.make 0 in
  let n = 200 and keys = 8 in
  let results =
    Mx_util.Task_pool.parallel_map ~jobs:Helpers.test_jobs ~chunk:1
      (fun i ->
        let key = "k" ^ string_of_int (i mod keys) in
        Memo_cache.find_or_compute c ~key (fun () ->
            Atomic.incr computes;
            (* widen the race window so waiters actually park *)
            for _ = 1 to 10_000 do
              Domain.cpu_relax ()
            done;
            i mod keys))
      (List.init n Fun.id)
  in
  Helpers.check_int "every key computed exactly once" keys
    (Atomic.get computes);
  Helpers.check_true "every caller observed its key's value"
    (List.for_all2 (fun i v -> v = i mod keys) (List.init n Fun.id) results);
  let s = Memo_cache.stats c in
  Helpers.check_int "misses = unique keys" keys s.Memo_cache.misses;
  Helpers.check_int "hits = remaining lookups" (n - keys) s.Memo_cache.hits

(* Evicting under parallel load never loses correctness, only reuse. *)
let test_parallel_eviction_stress () =
  let c = fresh ~capacity:4 () in
  let results =
    Mx_util.Task_pool.parallel_map ~jobs:Helpers.test_jobs ~chunk:4
      (fun i ->
        let key = "k" ^ string_of_int (i mod 16) in
        Memo_cache.find_or_compute c ~key (fun () -> i mod 16))
      (List.init 400 Fun.id)
  in
  Helpers.check_true "all values correct under eviction pressure"
    (List.for_all2 (fun i v -> v = i mod 16) (List.init 400 Fun.id) results);
  Helpers.check_true "capacity bound held"
    (Memo_cache.length c <= 4)

let suite =
  ( "memo_cache",
    [
      Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
      Alcotest.test_case "distinct keys" `Quick
        test_distinct_keys_distinct_entries;
      Alcotest.test_case "peek" `Quick test_peek;
      Alcotest.test_case "capacity 0 disables" `Quick
        test_capacity_zero_disables;
      Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
      Alcotest.test_case "LRU survivors under overflow" `Quick
        test_lru_survivors_under_overflow;
      Alcotest.test_case "failures not cached" `Quick test_failure_not_cached;
      Alcotest.test_case "clear keeps counters" `Quick
        test_clear_keeps_counters;
      Alcotest.test_case "metrics recording" `Quick test_metrics_recording;
      Alcotest.test_case "single-flight under parallelism" `Quick
        test_single_flight_parallel;
      Alcotest.test_case "parallel eviction stress" `Quick
        test_parallel_eviction_stress;
    ] )
