(* A single process-wide pool guarded by one mutex: workers block on
   [cond] waiting for tasks; completions are signalled on the same
   condition variable (waiters re-check their own predicate, so shared
   wakeups are only spurious, never lost). *)

type task = unit -> unit

let mutex = Mutex.create ()
let cond = Condition.create ()
let queue : task Queue.t = Queue.create ()
let workers : unit Domain.t list ref = ref []
let stopping = ref false

(* Workers mark their domain so that nested [parallel_map] calls degrade
   to serial maps instead of deadlocking the pool on itself. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)
let in_worker_domain () = Domain.DLS.get in_worker

let pool_size () =
  Mutex.lock mutex;
  let n = List.length !workers in
  Mutex.unlock mutex;
  n

let worker_loop () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock mutex;
    while Queue.is_empty queue && not !stopping do
      Condition.wait cond mutex
    done;
    match Queue.take_opt queue with
    | None -> Mutex.unlock mutex (* stopping and drained: exit *)
    | Some task ->
      Mutex.unlock mutex;
      task ();
      loop ()
  in
  loop ()

(* Tear the pool down when the main domain exits so the runtime never
   waits on workers parked in [Condition.wait]. *)
let () =
  at_exit (fun () ->
      Mutex.lock mutex;
      stopping := true;
      let ws = !workers in
      workers := [];
      Condition.broadcast cond;
      Mutex.unlock mutex;
      List.iter Domain.join ws)

(* Grow the pool to [n] workers; caller holds [mutex]. *)
let ensure_workers n =
  let have = List.length !workers in
  for _ = have + 1 to n do
    workers := Domain.spawn worker_loop :: !workers
  done

(* Items and calls are schedule-invariant; everything about how the
   work was split or who ran it lives under the sched. namespace (see
   the Metrics determinism contract). *)
let note_call xs =
  if Metrics.is_on Metrics.global then begin
    Metrics.incr Metrics.global "task_pool.calls";
    Metrics.incr Metrics.global ~by:(List.length xs) "task_pool.items"
  end

(* The one chunk engine: chunk results are handed back to the caller
   domain strictly in input-index order, so everything done inside
   [commit] (event emission, archive insertion, accumulation) is a pure
   function of the input list — independent of jobs, chunking and
   scheduling.  A [should_stop] signal turns the call into an anytime
   map: committing halts at a clean prefix, chunks not yet started are
   skipped, and in-flight chunks drain before the call returns.  A
   failed chunk cancels the rest the same way. *)

type 'b chunk_cell = CPending | CDone of ('b list, exn) result | CSkipped

let parallel_map_commit ~jobs ~chunk ?(should_stop = fun () -> false) ~commit
    f xs =
  if jobs < 0 then invalid_arg "Task_pool.parallel_map_commit: jobs < 0";
  let chunk = max 1 chunk in
  note_call xs;
  let serial xs =
    let rec go i committed = function
      | [] -> committed
      | x :: rest ->
        if should_stop () then committed
        else begin
          let y = f x in
          commit i x y;
          go (i + 1) (committed + 1) rest
        end
    in
    go 0 0 xs
  in
  match xs with
  | [] -> 0
  | [ _ ] -> serial xs
  | _ when jobs <= 1 || Domain.DLS.get in_worker -> serial xs
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let nchunks = (n + chunk - 1) / chunk in
    (* per-call state; [cells], [remaining] and [cancelled] are only
       touched under [mutex] *)
    let cells = Array.make nchunks CPending in
    let remaining = ref nchunks in
    let cancelled = ref false in
    let finish_chunk ci st =
      Mutex.lock mutex;
      cells.(ci) <- st;
      decr remaining;
      Condition.broadcast cond;
      Mutex.unlock mutex
    in
    let compute_chunk ci =
      let lo = ci * chunk in
      let hi = min n (lo + chunk) - 1 in
      let traced = Metrics.is_on Metrics.global in
      let t0 = if traced then Unix.gettimeofday () else 0.0 in
      let r =
        try
          let rec go i acc =
            if i > hi then List.rev acc else go (i + 1) (f arr.(i) :: acc)
          in
          Ok (go lo [])
        with e -> Error e
      in
      if traced then
        Metrics.observe Metrics.global ~unit_:"s"
          (Printf.sprintf "task_pool.sched.domain_busy_s.%d"
             (Domain.self () :> int))
          (Unix.gettimeofday () -. t0);
      finish_chunk ci (CDone r)
    in
    let run_chunk ci =
      (* queued work re-checks the cancel flag before computing, so a
         stop (or an error) abandons every chunk not yet started *)
      Mutex.lock mutex;
      let skip = !cancelled in
      Mutex.unlock mutex;
      if skip then finish_chunk ci CSkipped else compute_chunk ci
    in
    if Metrics.is_on Metrics.global then
      Metrics.incr Metrics.global ~by:(nchunks - 1)
        "task_pool.sched.dispatched_chunks";
    Mutex.lock mutex;
    ensure_workers (min (jobs - 1) (nchunks - 1));
    (* ascending dispatch: completion tends to follow commit order *)
    for ci = 1 to nchunks - 1 do
      Queue.push (fun () -> run_chunk ci) queue
    done;
    Condition.broadcast cond;
    Mutex.unlock mutex;
    (* chunk 0 commits first, so the caller always computes it *)
    compute_chunk 0;
    let committed = ref 0 in
    let next = ref 0 in
    let error = ref None in
    let stopped = ref false in
    let cancel_rest () =
      Mutex.lock mutex;
      cancelled := true;
      Mutex.unlock mutex
    in
    let commit_chunk ci ys =
      let lo = ci * chunk in
      List.iteri
        (fun k y ->
          if !error = None && not !stopped then
            if should_stop () then begin
              stopped := true;
              cancel_rest ()
            end
            else begin
              commit (lo + k) arr.(lo + k) y;
              incr committed
            end)
        ys
    in
    (* Caller-only loop: commit finished chunks in strict index order;
       help execute queued chunks while the next one is pending. *)
    let rec drive () =
      Mutex.lock mutex;
      let rec take_ready acc =
        if !next < nchunks && !error = None && not !stopped then
          match cells.(!next) with
          | CDone r ->
            let ci = !next in
            incr next;
            take_ready ((ci, r) :: acc)
          | CSkipped ->
            incr next;
            take_ready acc
          | CPending -> List.rev acc
        else List.rev acc
      in
      let ready = take_ready [] in
      if ready <> [] then begin
        Mutex.unlock mutex;
        List.iter
          (fun (ci, r) ->
            match r with
            | Ok ys -> commit_chunk ci ys
            | Error e ->
              if !error = None then begin
                error := Some e;
                cancel_rest ()
              end)
          ready;
        drive ()
      end
      else if !remaining = 0 then Mutex.unlock mutex
      else if !error <> None || !stopped then (
        (* nothing more to commit: drain the in-flight chunks (helping
           with still-queued ones, which will skip themselves) *)
        match Queue.take_opt queue with
        | Some task ->
          Mutex.unlock mutex;
          task ();
          drive ()
        | None ->
          while !remaining > 0 do
            Condition.wait cond mutex
          done;
          Mutex.unlock mutex)
      else
        match Queue.take_opt queue with
        | Some task ->
          Mutex.unlock mutex;
          task ();
          drive ()
        | None ->
          (* every remaining chunk is in flight; wait for one *)
          Condition.wait cond mutex;
          Mutex.unlock mutex;
          drive ()
    in
    drive ();
    (match !error with Some e -> raise e | None -> ());
    !committed

(* A plain map is an ordered fold over the commit engine. *)
let parallel_map ~jobs ~chunk f xs =
  if jobs < 0 then invalid_arg "Task_pool.parallel_map: jobs < 0";
  let acc = ref [] in
  ignore
    (parallel_map_commit ~jobs ~chunk
       ~commit:(fun _ _ y -> acc := y :: !acc)
       f xs);
  List.rev !acc
