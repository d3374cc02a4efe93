(* Crash-recovery suite for the persistent evaluation store: fault
   injection (torn writes, corrupt records, failed fsync), byte-level
   truncation sweeps, revision invalidation, segment rotation, a
   concurrent writer+reopen hammer, and the Eval disk tier on top. *)

module Persist = Mx_util.Persist_cache
module Eval = Mx_sim.Eval
module Sim_result = Mx_sim.Sim_result

let unique = ref 0

(* Fresh scratch directory per test; removed (with contents) on exit. *)
let with_dir f =
  incr unique;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mx-persist-test-%d-%d" (Unix.getpid ()) !unique)
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir && Sys.is_directory dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let open_ok ?segment_max_bytes ?(revision = "test-r1") dir =
  match Persist.open_dir ?segment_max_bytes ~revision ~dir () with
  | Ok t -> t
  | Error e -> Alcotest.failf "cannot open store in %s: %s" dir e

(* On-disk layout knowledge for byte-targeted faults (DESIGN.md §15):
   header = magic + revision + newline, record = tag byte + two u32
   lengths + key + value + 16-byte digest. *)
let header_len rev = 6 + String.length rev + 1
let record_len k v = 9 + String.length k + String.length v + 16

let value_of i = Printf.sprintf "value-%06d" i
let key_of i = Printf.sprintf "key-%06d" i

let test_roundtrip () =
  with_dir (fun dir ->
      let t = open_ok dir in
      Helpers.check_true "missing key reads None" (Persist.get t ~key:"a" = None);
      Persist.put t ~key:"a" "alpha";
      Persist.put t ~key:"b" "";
      Persist.put t ~key:"a" "alpha-2";
      Helpers.check_true "last write wins"
        (Persist.get t ~key:"a" = Some "alpha-2");
      Helpers.check_true "empty values round-trip"
        (Persist.get t ~key:"b" = Some "");
      Helpers.check_true "mem sees resident keys" (Persist.mem t ~key:"b");
      Helpers.check_int "two distinct keys" 2 (Persist.length t);
      Persist.close t;
      Persist.close t (* double-close is harmless *))

let test_reopen_recovers () =
  with_dir (fun dir ->
      let t = open_ok dir in
      for i = 0 to 49 do
        Persist.put t ~key:(key_of i) (value_of i)
      done;
      Persist.close t;
      let t = open_ok dir in
      for i = 0 to 49 do
        Helpers.check_true
          (Printf.sprintf "key %d survives reopen" i)
          (Persist.get t ~key:(key_of i) = Some (value_of i))
      done;
      let s = Persist.stats t in
      Helpers.check_int "all records recovered" 50 s.Persist.recovered;
      Helpers.check_int "no records skipped" 0 s.Persist.skipped_records;
      Persist.close t)

let test_rotation () =
  with_dir (fun dir ->
      (* 4096 is the floor segment size; ~37-byte records roll over
         after ~110 puts, so 400 puts produce several segments *)
      let t = open_ok ~segment_max_bytes:1 dir in
      for i = 0 to 399 do
        Persist.put t ~key:(key_of i) (value_of i)
      done;
      let segs = Persist.Testing.segment_files t in
      Helpers.check_true
        (Printf.sprintf "rotation produced several segments (got %d)"
           (List.length segs))
        (List.length segs >= 3);
      Persist.close t;
      let t = open_ok dir in
      for i = 0 to 399 do
        Helpers.check_true
          (Printf.sprintf "key %d survives rotation + reopen" i)
          (Persist.get t ~key:(key_of i) = Some (value_of i))
      done;
      Persist.close t)

let test_torn_write_fault () =
  with_dir (fun dir ->
      let t = open_ok dir in
      Persist.put t ~key:"committed" "yes";
      Persist.Testing.set_fault t (Some (Persist.Testing.Torn_write 7));
      (match Persist.put t ~key:"torn" "never-lands" with
      | () -> Alcotest.fail "torn write did not crash"
      | exception Persist.Testing.Injected_crash _ -> ());
      Persist.close t;
      let t = open_ok dir in
      Helpers.check_true "committed record survives the crash"
        (Persist.get t ~key:"committed" = Some "yes");
      Helpers.check_true "the torn record is not served"
        (Persist.get t ~key:"torn" = None);
      let s = Persist.stats t in
      Helpers.check_int "one committed record recovered" 1 s.Persist.recovered;
      Helpers.check_true "the torn tail was counted"
        (s.Persist.skipped_records >= 1);
      Persist.close t)

(* Truncate at every byte boundary inside the last record: whatever
   the cut point — mid-header, mid-key, mid-value, mid-digest — the
   committed prefix must survive untouched and the cut record must
   never be served. *)
let test_truncation_sweep () =
  let rev = "test-r1" in
  let k0 = "first" and v0 = "first-value" in
  let k1 = "second" and v1 = "second-value" in
  let base = header_len rev + record_len k0 v0 in
  let last = record_len k1 v1 in
  (* every cut inside the last record, stepping 3 to keep it quick *)
  let cuts = List.init ((last - 1) / 3) (fun i -> base + 1 + (3 * i)) in
  List.iter
    (fun cut ->
      with_dir (fun dir ->
          let t = open_ok dir in
          Persist.put t ~key:k0 v0;
          Persist.put t ~key:k1 v1;
          let seg = List.hd (Persist.Testing.segment_files t) in
          Persist.close t;
          Persist.Testing.truncate_file ~path:seg ~at:cut;
          let t = open_ok dir in
          Helpers.check_true
            (Printf.sprintf "prefix survives a cut at byte %d" cut)
            (Persist.get t ~key:k0 = Some v0);
          Helpers.check_true
            (Printf.sprintf "cut record is not served (cut at %d)" cut)
            (Persist.get t ~key:k1 = None);
          Persist.close t))
    cuts

let test_corrupt_record_fault () =
  with_dir (fun dir ->
      let t = open_ok dir in
      Persist.put t ~key:"before" "ok";
      Persist.Testing.set_fault t (Some Persist.Testing.Corrupt_record);
      Persist.put t ~key:"rotten" "bits";
      (* behind the corruption: lost on recovery (scan stops), by design *)
      Persist.put t ~key:"after" "shadowed";
      Persist.close t;
      let t = open_ok dir in
      Helpers.check_true "record before the corruption survives"
        (Persist.get t ~key:"before" = Some "ok");
      Helpers.check_true "the corrupt record is never served"
        (Persist.get t ~key:"rotten" = None);
      Helpers.check_true "records behind the corruption are quarantined too"
        (Persist.get t ~key:"after" = None);
      let s = Persist.stats t in
      Helpers.check_true "the corruption was counted"
        (s.Persist.skipped_records >= 1);
      Persist.close t)

let test_fail_fsync_fault () =
  with_dir (fun dir ->
      let t = open_ok dir in
      Persist.put t ~key:"flushed" "yes";
      Persist.Testing.set_fault t (Some Persist.Testing.Fail_fsync);
      (match Persist.sync t with
      | () -> Alcotest.fail "failed fsync did not crash"
      | exception Persist.Testing.Injected_crash _ -> ());
      (* the channel flush preceded the failed fsync: the record is in
         the OS page cache, which a process crash does not lose *)
      Persist.close t;
      let t = open_ok dir in
      Helpers.check_true "flushed record survives a failed fsync"
        (Persist.get t ~key:"flushed" = Some "yes");
      Persist.close t)

let test_revision_invalidation () =
  with_dir (fun dir ->
      let t = open_ok ~revision:"model-A" dir in
      Persist.put t ~key:"k" "from-A";
      Persist.close t;
      let t = open_ok ~revision:"model-B" dir in
      Helpers.check_true "model-B ignores model-A's entries"
        (Persist.get t ~key:"k" = None);
      Helpers.check_int "the stale segment is counted" 1
        (Persist.stats t).Persist.stale_segments;
      Persist.put t ~key:"k" "from-B";
      Persist.close t;
      let t = open_ok ~revision:"model-A" dir in
      Helpers.check_true "model-A still owns its data"
        (Persist.get t ~key:"k" = Some "from-A");
      Persist.close t)

(* A writer appends while readers keep reopening the directory: every
   view must be a correct prefix of the write sequence — right values,
   contiguous keys, never a torn or reordered record. *)
let test_concurrent_writer_reopen_hammer () =
  with_dir (fun dir ->
      let total = 2000 in
      let writer_done = Atomic.make false in
      let writer =
        Domain.spawn (fun () ->
            let t = open_ok dir in
            for i = 0 to total - 1 do
              Persist.put t ~key:(key_of i) (value_of i)
            done;
            Persist.close t;
            Atomic.set writer_done true)
      in
      let violations = ref [] in
      let views = ref 0 in
      while not (Atomic.get writer_done) do
        (match Persist.open_dir ~revision:"test-r1" ~dir () with
        | Error e -> violations := ("open: " ^ e) :: !violations
        | Ok view ->
          incr views;
          let n = Persist.length view in
          (* a valid committed prefix: keys 0..n-1 present and correct,
             key n absent *)
          for i = 0 to n - 1 do
            match Persist.get view ~key:(key_of i) with
            | Some v when v = value_of i -> ()
            | Some v ->
              violations :=
                Printf.sprintf "key %d read %S" i v :: !violations
            | None ->
              violations :=
                Printf.sprintf "key %d missing from a %d-entry view" i n
                :: !violations
          done;
          if Persist.get view ~key:(key_of n) <> None then
            violations :=
              Printf.sprintf "view of %d entries serves key %d" n n
              :: !violations;
          Persist.close view);
        Domain.cpu_relax ()
      done;
      Domain.join writer;
      Helpers.check_true
        (match !violations with
        | [] -> "no violations"
        | v :: _ -> Printf.sprintf "prefix violation: %s" v)
        (!violations = []);
      Helpers.check_true "the hammer actually reopened the store"
        (!views > 0);
      (* final view: everything committed *)
      let t = open_ok dir in
      Helpers.check_int "all records in the final view" total
        (Persist.length t);
      Persist.close t)

(* Two writers on one fresh directory — as two processes sharing a
   --cache-dir are — claim segments of their own, across rotations
   too: a reopen finds every key either of them wrote. *)
let test_two_writers_keep_every_record () =
  with_dir (fun dir ->
      let total = 400 in
      let a = open_ok ~segment_max_bytes:1 dir
      and b = open_ok ~segment_max_bytes:1 dir in
      for i = 0 to total - 1 do
        Persist.put (if i mod 2 = 0 then a else b) ~key:(key_of i) (value_of i)
      done;
      Persist.close a;
      Persist.close b;
      let t = open_ok dir in
      for i = 0 to total - 1 do
        Helpers.check_true
          (Printf.sprintf "key %d survives two writers" i)
          (Persist.get t ~key:(key_of i) = Some (value_of i))
      done;
      Helpers.check_int "every record recovered" total
        (Persist.stats t).Persist.recovered;
      Persist.close t)

(* -- the Eval disk tier on top ------------------------------------------ *)

let test_sim_result_wire_roundtrip () =
  let r =
    {
      Sim_result.accesses = 12345;
      cycles = 67890;
      total_mem_latency = 424242;
      avg_mem_latency = 1.0 /. 3.0;
      avg_energy_nj = 2.7182818284590452e-7;
      miss_ratio = 0.1 +. 0.2;
      bus_wait_cycles = 99;
      dram_bytes = 1 lsl 40;
      exact = true;
    }
  in
  Helpers.check_true "wire form round-trips bit-exactly"
    (Sim_result.of_wire (Sim_result.to_wire r) = Some r);
  Helpers.check_true "garbage does not parse"
    (Sim_result.of_wire "not a result" = None);
  Helpers.check_true "truncated lines do not parse"
    (Sim_result.of_wire "1 2 3" = None)

let test_eval_disk_tier () =
  with_dir (fun dir ->
      let w = Helpers.mixed_workload ~scale:4000 () in
      let arch = Helpers.cache_only_arch w in
      let conn =
        Helpers.naive_conn (Mx_connect.Brg.build arch (Helpers.profile_of arch w))
      in
      Fun.protect ~finally:Eval.close_persist (fun () ->
          (match Eval.open_persist ~dir with
          | Ok () -> ()
          | Error e -> Alcotest.failf "open_persist: %s" e);
          Eval.clear_cache ();
          let r1, p1 =
            Eval.eval_prov ~fidelity:Eval.Exact ~workload:w ~arch ~conn ()
          in
          Helpers.check_true "cold evaluation is computed" (p1 = Eval.Computed);
          (* simulate a restart: drop the hot tier, reopen the store *)
          (match Eval.open_persist ~dir with
          | Ok () -> ()
          | Error e -> Alcotest.failf "reopen_persist: %s" e);
          Eval.clear_cache ();
          let r2, p2 =
            Eval.eval_prov ~fidelity:Eval.Exact ~workload:w ~arch ~conn ()
          in
          Helpers.check_true
            (Printf.sprintf "restarted evaluation hits the disk (got %s)"
               (Eval.provenance_tag p2))
            (p2 = Eval.Disk_hit);
          Helpers.check_true "disk tier returns the identical result" (r1 = r2);
          let r3, p3 =
            Eval.eval_prov ~fidelity:(Eval.Sampled (100, 900)) ~workload:w
              ~arch ~conn ()
          in
          Helpers.check_true "disk-promoted Exact serves Sampled"
            (p3 = Eval.Promoted && r3 = r1)))

(* The ladder cell beside Exact: a Sampled result with no Exact entry
   to promote from goes through the hot and disk tier. *)
let test_eval_ladder_tiers () =
  with_dir (fun dir ->
      let w = Helpers.mixed_workload ~scale:4000 () in
      let arch = Helpers.cache_only_arch w in
      let profile = Helpers.profile_of arch w in
      let conn = Helpers.naive_conn (Mx_connect.Brg.build arch profile) in
      (* a restart: close the store, reopen it, start a fresh hot tier *)
      let restart () =
        Eval.close_persist ();
        (match Eval.open_persist ~dir with
        | Ok () -> ()
        | Error e -> Alcotest.failf "open_persist: %s" e);
        Eval.clear_cache ()
      in
      let eval what fidelity expect =
        let r, p = Eval.eval_prov ~fidelity ~workload:w ~arch ~conn () in
        Helpers.check_true
          (Printf.sprintf "%s (got %s)" what (Eval.provenance_tag p))
          (p = expect);
        r
      in
      let sampled = Eval.Sampled (100, 900) in
      Fun.protect ~finally:Eval.close_persist (fun () ->
          restart ();
          let s1 = eval "cold sampled is computed" sampled Eval.Computed in
          restart ();
          let s2 =
            eval "restarted sampled hits the disk" sampled Eval.Disk_hit
          in
          Helpers.check_true "sampled identical in both tiers" (s1 = s2)))

let test_eval_disk_metrics () =
  with_dir (fun dir ->
      let w = Helpers.mixed_workload ~scale:4000 () in
      let arch = Helpers.cache_only_arch w in
      let conn =
        Helpers.naive_conn (Mx_connect.Brg.build arch (Helpers.profile_of arch w))
      in
      Helpers.with_global_metrics (fun () ->
          Fun.protect ~finally:Eval.close_persist (fun () ->
              (match Eval.open_persist ~dir with
              | Ok () -> ()
              | Error e -> Alcotest.failf "open_persist: %s" e);
              Eval.clear_cache ();
              ignore (Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn ());
              (match Eval.open_persist ~dir with
              | Ok () -> ()
              | Error e -> Alcotest.failf "reopen_persist: %s" e);
              Eval.clear_cache ();
              ignore (Eval.eval ~fidelity:Eval.Exact ~workload:w ~arch ~conn ());
              let m = Mx_util.Metrics.global in
              Helpers.check_true "disk writes counted"
                (Mx_util.Metrics.counter_value m "eval.cache.disk.writes" > 0);
              Helpers.check_true "disk hits counted"
                (Mx_util.Metrics.counter_value m "eval.cache.disk.hits" > 0);
              (* disk traffic depends on what earlier runs left behind:
                 it must sit outside the determinism contract *)
              let det =
                Mx_util.Metrics.deterministic_counters
                  (Mx_util.Metrics.snapshot m)
              in
              Helpers.check_true "disk counters are schedule-exempt"
                (not
                   (List.exists
                      (fun (name, _) -> name = "eval.cache.disk.hits")
                      det)))))

let suite =
  ( "persist_cache",
    [
      Alcotest.test_case "roundtrip, overwrite, empty values" `Quick
        test_roundtrip;
      Alcotest.test_case "reopen recovers every committed record" `Quick
        test_reopen_recovers;
      Alcotest.test_case "segment rotation survives reopen" `Quick
        test_rotation;
      Alcotest.test_case "torn-write fault loses only the torn record" `Quick
        test_torn_write_fault;
      Alcotest.test_case "truncation sweep over every byte boundary" `Quick
        test_truncation_sweep;
      Alcotest.test_case "corrupt record is quarantined with its tail" `Quick
        test_corrupt_record_fault;
      Alcotest.test_case "failed fsync loses nothing already flushed" `Quick
        test_fail_fsync_fault;
      Alcotest.test_case "revision bump invalidates without deleting" `Quick
        test_revision_invalidation;
      Alcotest.test_case "concurrent writer + reopen hammer" `Quick
        test_concurrent_writer_reopen_hammer;
      Alcotest.test_case "two writers on one directory keep every record"
        `Quick test_two_writers_keep_every_record;
      Alcotest.test_case "Sim_result wire form round-trips bit-exactly" `Quick
        test_sim_result_wire_roundtrip;
      Alcotest.test_case "Eval disk tier: restart hits, promotion" `Quick
        test_eval_disk_tier;
      Alcotest.test_case "Eval ladder: sampled in tiers" `Quick
        test_eval_ladder_tiers;
      Alcotest.test_case "Eval disk metrics are counted and exempt" `Quick
        test_eval_disk_metrics;
    ] )
