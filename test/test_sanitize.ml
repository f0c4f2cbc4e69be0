(* Sanitizer plane tests: each seeded violation (lock-order inversion,
   park-while-latched, illegal frame transition, forged non-monotone
   LSN) must be caught and named; the latch timeout path must leave no
   phantom wait state; the replay digest must be deterministic; and a
   clean TPC-C run under sanitize=on must report zero findings. *)
open Phoebe_core
module Sanitize = Phoebe_sanitize.Sanitize
module Latch = Phoebe_storage.Latch
module Scheduler = Phoebe_runtime.Scheduler
module Engine = Phoebe_sim.Engine
module Component = Phoebe_sim.Component
module Trace = Phoebe_obs.Trace
module T = Phoebe_tpcc.Tpcc

(* A blind write of one named column through the index-based update. *)
let set_col t txn ~rid name v =
  let c = Table.col t name in
  Table.update ~reads:[||] t txn ~rid (fun _ -> [| (c, v) |])

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_sanitizer f =
  Sanitize.enable ();
  Fun.protect ~finally:(fun () -> Sanitize.disable ()) f

let expect_bug subsystem f =
  match f () with
  | _ -> Alcotest.failf "expected Bug(%s); nothing was raised" subsystem
  | exception Phoebe_util.Phoebe_error.Bug { subsystem = s; _ } ->
    Alcotest.(check string) "bug subsystem" subsystem s

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let make_sched ?(n_workers = 1) ?(slots = 2) () =
  let eng = Engine.create () in
  let cfg = { Scheduler.default_config with n_workers; slots_per_worker = slots } in
  (eng, Scheduler.create eng cfg)

(* ------------------------------------------------------------------ *)
(* Lock-order detector *)

let test_lock_order_inversion () =
  with_sanitizer @@ fun () ->
  let a = Latch.create () and b = Latch.create () in
  Latch.set_tag a 1;
  Latch.set_tag b 2;
  (* establish the order a < b ... *)
  Latch.acquire_exclusive a;
  Latch.acquire_exclusive b;
  Latch.release_exclusive b;
  Latch.release_exclusive a;
  (* ... then take them in the opposite order: caught at wait intent,
     before the acquisition could actually deadlock *)
  Latch.acquire_exclusive b;
  expect_bug "sanitize.lock_order" (fun () -> Latch.acquire_exclusive a);
  (match Sanitize.findings () with
  | [ (Sanitize.Lock_order, msg) ] ->
    check_bool "report names the inversion" true (contains msg "inversion");
    check_bool "report carries the opposite-order witness" true (contains msg "witness")
  | fs -> Alcotest.failf "expected exactly one lock_order finding, got %d" (List.length fs));
  check_bool "no phantom wait state after the raise" false (Sanitize.is_waiting ~fiber:0);
  Latch.release_exclusive b

let test_lock_order_consistent_is_clean () =
  with_sanitizer @@ fun () ->
  let a = Latch.create () and b = Latch.create () in
  for _ = 1 to 3 do
    Latch.acquire_exclusive a;
    Latch.acquire_exclusive b;
    Latch.release_exclusive b;
    Latch.release_exclusive a
  done;
  check_int "consistent order leaves no findings" 0 (Sanitize.total_findings ())

(* ------------------------------------------------------------------ *)
(* Park-while-latched *)

let test_park_while_latched () =
  with_sanitizer @@ fun () ->
  let _, s = make_sched () in
  let l = Latch.create () in
  Scheduler.submit s (fun () ->
      Latch.acquire_exclusive l;
      ignore
        (Scheduler.park ~urgency:Scheduler.High ~phase:Trace.Lock_wait (fun wt ->
             ignore (Scheduler.wake_waiter wt Scheduler.Signalled)));
      Latch.release_exclusive l);
  expect_bug "sanitize.park_latched" (fun () -> Scheduler.run_until_quiescent s);
  check_bool "park_latched finding recorded" true
    (List.exists (fun (r, _) -> r = Sanitize.Park_latched) (Sanitize.findings ()))

(* Only device I/O is exempt: a network round trip under a latch is a
   violation like any other non-I/O park. *)
let test_remote_wait_while_latched () =
  with_sanitizer @@ fun () ->
  let _, s = make_sched () in
  let l = Latch.create () in
  Scheduler.submit s (fun () ->
      Latch.acquire_exclusive l;
      ignore
        (Scheduler.park ~urgency:Scheduler.High ~phase:Trace.Remote_wait (fun wt ->
             ignore (Scheduler.wake_waiter wt Scheduler.Signalled)));
      Latch.release_exclusive l);
  expect_bug "sanitize.park_latched" (fun () -> Scheduler.run_until_quiescent s);
  check_bool "park_latched finding names the wait" true
    (List.exists
       (fun (r, msg) -> r = Sanitize.Park_latched && contains msg "remote_wait")
       (Sanitize.findings ()))

let test_io_wait_while_latched_is_exempt () =
  with_sanitizer @@ fun () ->
  let eng, s = make_sched () in
  let l = Latch.create () in
  Scheduler.submit s (fun () ->
      Latch.acquire_exclusive l;
      (* a latched holder faulting a page suspends on device I/O —
         exempt by design (see latch.mli) *)
      Scheduler.io_wait (fun resume -> Engine.schedule eng ~delay:50_000 resume);
      Latch.release_exclusive l);
  Scheduler.run_until_quiescent s;
  check_int "device I/O while latched is not a violation" 0 (Sanitize.total_findings ())

(* ------------------------------------------------------------------ *)
(* Latch timeout cleanup (deadline abort leaves no phantom state) *)

let test_latch_timeout_cleans_up () =
  with_sanitizer @@ fun () ->
  let eng, s = make_sched () in
  let l = Latch.create () in
  let timed_out = ref false and clean_after = ref false and reacquired = ref false in
  Scheduler.submit s (fun () ->
      Latch.acquire_exclusive l;
      Scheduler.io_wait (fun resume -> Engine.schedule eng ~delay:1_000_000 resume);
      Latch.release_exclusive l);
  Scheduler.submit s (fun () ->
      Scheduler.set_txn_deadline (Some (Engine.now eng + 10_000));
      (match Latch.acquire_exclusive l with
      | () -> Alcotest.fail "acquisition should have timed out behind the latched I/O holder"
      | exception Latch.Timeout ->
        timed_out := true;
        let fiber = Scheduler.current_fiber_id () in
        clean_after :=
          Sanitize.held_latches ~fiber = 0 && not (Sanitize.is_waiting ~fiber));
      Scheduler.set_txn_deadline None;
      Latch.acquire_exclusive l;
      reacquired := true;
      Latch.release_exclusive l);
  Scheduler.run_until_quiescent s;
  check_bool "spin observed the deadline" true !timed_out;
  check_bool "timeout left no held/wait state" true !clean_after;
  check_bool "re-acquired once the holder released" true !reacquired;
  check_int "no findings from a clean timeout" 0 (Sanitize.total_findings ())

(* ------------------------------------------------------------------ *)
(* Buffer-frame state machine *)

let test_frame_violations () =
  with_sanitizer @@ fun () ->
  Sanitize.frame_alloc ~scope:1 ~page_id:7 ~frame:70;
  expect_bug "sanitize.frame_state" (fun () -> Sanitize.frame_alloc ~scope:1 ~page_id:7 ~frame:71);
  Sanitize.reset ();
  Sanitize.frame_alloc ~scope:1 ~page_id:9 ~frame:90;
  expect_bug "sanitize.frame_state" (fun () ->
      Sanitize.frame_evict ~scope:1 ~page_id:9 ~frame:90 ~dirty:true ~pinned:0 ~cooling:true);
  Sanitize.reset ();
  Sanitize.frame_alloc ~scope:1 ~page_id:11 ~frame:110;
  expect_bug "sanitize.frame_state" (fun () ->
      Sanitize.frame_demote ~scope:1 ~page_id:11 ~frame:110 ~hot:true ~pinned:2);
  Sanitize.reset ();
  (* the legal life cycle: alloc -> demote -> clean -> evict *)
  Sanitize.frame_alloc ~scope:2 ~page_id:3 ~frame:30;
  Sanitize.frame_demote ~scope:2 ~page_id:3 ~frame:30 ~hot:true ~pinned:0;
  Sanitize.frame_clean ~scope:2 ~page_id:3 ~frame:30;
  Sanitize.frame_evict ~scope:2 ~page_id:3 ~frame:30 ~dirty:false ~pinned:0 ~cooling:true;
  check_int "legal life cycle leaves no findings" 0 (Sanitize.total_findings ());
  (* the same page id in a different buffer manager is a different frame *)
  Sanitize.frame_alloc ~scope:2 ~page_id:5 ~frame:50;
  Sanitize.frame_alloc ~scope:3 ~page_id:5 ~frame:51;
  check_int "scopes are independent" 0 (Sanitize.total_findings ())

(* A page evicted and faulted back in has a new frame. The old frame's
   hooks (a stale cooling-queue entry evicting it, or a drop through it)
   act on the new frame's page: each is a finding named for the stale
   frame, where a page-id mirror would have let it pass. *)
let test_stale_frame () =
  with_sanitizer @@ fun () ->
  let stale_bug f =
    match f () with
    | () -> Alcotest.fail "expected a stale-frame finding; nothing was raised"
    | exception Phoebe_util.Phoebe_error.Bug { subsystem; context } ->
      Alcotest.(check string) "bug subsystem" "sanitize.frame_state" subsystem;
      check_bool "finding names the stale frame" true (contains context "stale frame")
  in
  let reheat () =
    Sanitize.frame_alloc ~scope:4 ~page_id:8 ~frame:80;
    Sanitize.frame_demote ~scope:4 ~page_id:8 ~frame:80 ~hot:true ~pinned:0;
    Sanitize.frame_evict ~scope:4 ~page_id:8 ~frame:80 ~dirty:false ~pinned:0 ~cooling:true;
    Sanitize.frame_fault_in ~scope:4 ~page_id:8 ~frame:81
  in
  reheat ();
  stale_bug (fun () ->
      Sanitize.frame_evict ~scope:4 ~page_id:8 ~frame:80 ~dirty:false ~pinned:0 ~cooling:true);
  Sanitize.reset ();
  reheat ();
  stale_bug (fun () -> Sanitize.frame_drop ~scope:4 ~page_id:8 ~frame:80);
  Sanitize.reset ();
  reheat ();
  stale_bug (fun () -> Sanitize.frame_clean ~scope:4 ~page_id:8 ~frame:80);
  Sanitize.reset ();
  (* the resident frame itself may still be dropped *)
  reheat ();
  Sanitize.frame_drop ~scope:4 ~page_id:8 ~frame:81;
  check_int "the resident frame's drop is legal" 0 (Sanitize.total_findings ())

(* ------------------------------------------------------------------ *)
(* WAL monotonicity *)

let test_wal_violations () =
  with_sanitizer @@ fun () ->
  Sanitize.wal_append ~scope:5 ~file:0 ~lsn:1;
  Sanitize.wal_append ~scope:5 ~file:0 ~lsn:2;
  expect_bug "sanitize.wal_mono" (fun () ->
      (* forged: a repeated LSN is never legal within one incarnation *)
      Sanitize.wal_append ~scope:5 ~file:0 ~lsn:2);
  Sanitize.reset ();
  expect_bug "sanitize.wal_mono" (fun () ->
      Sanitize.wal_frontier ~scope:5 ~file:1 ~durable:10 ~appended:5);
  Sanitize.reset ();
  Sanitize.wal_frontier ~scope:5 ~file:1 ~durable:100 ~appended:120;
  expect_bug "sanitize.wal_mono" (fun () ->
      Sanitize.wal_frontier ~scope:5 ~file:1 ~durable:40 ~appended:120);
  Sanitize.reset ();
  (* a crash legitimately rewinds the LSN tail (appended-but-not-durable
     records are lost) but the durable frontier stays monotone *)
  Sanitize.wal_append ~scope:6 ~file:0 ~lsn:9;
  Sanitize.wal_frontier ~scope:6 ~file:0 ~durable:100 ~appended:100;
  Sanitize.wal_crash ~scope:6;
  Sanitize.wal_append ~scope:6 ~file:0 ~lsn:3;
  expect_bug "sanitize.wal_mono" (fun () ->
      Sanitize.wal_frontier ~scope:6 ~file:0 ~durable:50 ~appended:200);
  Sanitize.reset ();
  (* a restart's cut of a torn tail is the frontier's one backward move:
     it may drop the bytes a crash left past the frontier, never the
     frontier itself, and later frontiers are checked against the cut *)
  Sanitize.wal_frontier ~scope:7 ~file:0 ~durable:100 ~appended:100;
  Sanitize.wal_truncate ~scope:7 ~file:0 ~durable:100;
  Sanitize.wal_frontier ~scope:7 ~file:0 ~durable:180 ~appended:180;
  Sanitize.wal_truncate ~scope:7 ~file:0 ~durable:180;
  expect_bug "sanitize.wal_mono" (fun () -> Sanitize.wal_truncate ~scope:7 ~file:0 ~durable:120)

(* ------------------------------------------------------------------ *)
(* Replay digest determinism *)

let digest_of_workload charge_scale =
  Sanitize.reset ();
  let _, s = make_sched ~n_workers:2 ~slots:2 () in
  for i = 1 to 10 do
    Scheduler.submit s (fun () ->
        Scheduler.charge Component.Effective (1_000 * ((i mod 3) + charge_scale));
        Scheduler.yield Scheduler.Low;
        Scheduler.charge Component.Wal 500)
  done;
  Scheduler.run_until_quiescent s;
  Sanitize.replay_digest ()

let test_digest_determinism () =
  with_sanitizer @@ fun () ->
  let d1 = digest_of_workload 1 in
  let d2 = digest_of_workload 1 in
  let d3 = digest_of_workload 4 in
  check_bool "digest folded events" true (d1 <> 0);
  check_int "identical runs produce identical digests" d1 d2;
  check_bool "a different schedule produces a different digest" true (d1 <> d3)

(* ------------------------------------------------------------------ *)
(* Clean TPC-C smoke under sanitize=on *)

let tiny_scale =
  {
    T.districts_per_warehouse = 3;
    customers_per_district = 20;
    items = 100;
    initial_orders_per_district = 10;
  }

(* ------------------------------------------------------------------ *)
(* Commit-path undo-chain checker vs slab recycling: seed exactly the
   bug the freelist grace period prevents — an undo entry whose previous
   life was reclaimed turning up, [reclaimed] bit still set, in a
   committing transaction's chain — and require the sanitizer to name
   it at the commit boundary. *)

let test_recycled_undo_in_commit_chain_caught () =
  Fun.protect ~finally:(fun () -> Sanitize.disable ()) @@ fun () ->
  let cfg =
    { Config.default with Config.n_workers = 1; slots_per_worker = 2; sanitize = true }
  in
  let db = Db.create cfg in
  let t =
    Db.create_table db ~name:"kv"
      ~schema:[ ("k", Phoebe_storage.Value.T_int); ("v", Phoebe_storage.Value.T_int) ]
  in
  let rid =
    Db.with_txn db (fun txn ->
        Table.insert t txn [| Phoebe_storage.Value.Int 1; Phoebe_storage.Value.Int 0 |])
  in
  check_int "clean before the seeded fault" 0 (Sanitize.total_findings ());
  expect_bug "sanitize.undo_chain" (fun () ->
      Db.with_txn db (fun txn ->
          ignore (set_col t txn ~rid "v" (Phoebe_storage.Value.Int 1));
          match txn.Phoebe_txn.Txnmgr.undo_newest with
          | Some u -> u.Phoebe_txn.Undo.reclaimed <- true
          | None -> Alcotest.fail "update left no undo entry"));
  match Sanitize.findings () with
  | [ (Sanitize.Undo_chain, msg) ] ->
    check_bool "report names the recycled entry" true (contains msg "reclaimed")
  | fs -> Alcotest.failf "expected exactly one undo_chain finding, got %d" (List.length fs)

let test_tpcc_clean () =
  Fun.protect ~finally:(fun () -> Sanitize.disable ()) @@ fun () ->
  let cfg =
    { Config.default with Config.n_workers = 2; slots_per_worker = 4; sanitize = true }
  in
  let db = Db.create cfg in
  let t = T.load db ~warehouses:2 ~scale:tiny_scale ~seed:7 () in
  let r = T.run_mix t ~concurrency:8 ~duration_ns:200_000_000 ~seed:3 () in
  check_bool "sanitized run commits transactions" true (r.T.total_committed > 50);
  check_int "zero findings on a clean TPC-C run" 0 (Sanitize.total_findings ());
  check_bool "digest folded the run's events" true (Sanitize.replay_digest () <> 0)

let () =
  Alcotest.run "sanitize"
    [
      ( "sanitize",
        [
          Alcotest.test_case "lock-order inversion caught" `Quick test_lock_order_inversion;
          Alcotest.test_case "consistent order is clean" `Quick test_lock_order_consistent_is_clean;
          Alcotest.test_case "park while latched caught" `Quick test_park_while_latched;
          Alcotest.test_case "remote wait while latched caught" `Quick
            test_remote_wait_while_latched;
          Alcotest.test_case "io wait while latched exempt" `Quick
            test_io_wait_while_latched_is_exempt;
          Alcotest.test_case "latch timeout cleans up" `Quick test_latch_timeout_cleans_up;
          Alcotest.test_case "illegal frame transitions caught" `Quick test_frame_violations;
          Alcotest.test_case "stale frame caught" `Quick test_stale_frame;
          Alcotest.test_case "forged non-monotone LSNs caught" `Quick test_wal_violations;
          Alcotest.test_case "replay digest determinism" `Quick test_digest_determinism;
          Alcotest.test_case "recycled undo entry in commit chain caught" `Quick
            test_recycled_undo_in_commit_chain_caught;
          Alcotest.test_case "clean tpcc run, zero findings" `Quick test_tpcc_clean;
        ] );
    ]
