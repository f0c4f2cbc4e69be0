(* End-to-end kernel tests: transactional DML, snapshot isolation
   semantics, conflicts/deadlocks under concurrent fibers, GC, freeze,
   and crash recovery. *)
open Phoebe_core
module Value = Phoebe_storage.Value
module Txnmgr = Phoebe_txn.Txnmgr
module Scheduler = Phoebe_runtime.Scheduler
module Wal = Phoebe_wal.Wal

(* A blind write of one named column through the index-based update. *)
let set_col t txn ~rid name v =
  let c = Table.col t name in
  Table.update ~reads:[||] t txn ~rid (fun _ -> [| (c, v) |])

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_config =
  { Config.default with Config.n_workers = 2; slots_per_worker = 4; buffer_bytes = 64 * 1024 * 1024 }

let make_db ?(cfg = small_config) () = Db.create cfg

let accounts_db ?cfg () =
  let db = make_db ?cfg () in
  let t =
    Db.create_table db ~name:"accounts"
      ~schema:[ ("owner", Value.T_str); ("balance", Value.T_int) ]
  in
  Db.create_index db t ~name:"accounts_by_owner" ~cols:[ "owner" ] ~unique:true;
  (db, t)

let insert_account db t owner balance =
  Db.with_txn db (fun txn -> Table.insert t txn [| Value.Str owner; Value.Int balance |])

(* Every visible row under [key]: an index prefix scan over the full
   key, each row copied out of its scratch buffer. *)
let index_rows t txn ~index ~key =
  let acc = ref [] in
  Table.index_prefix t txn ~index ~prefix:key (fun rid row ->
      acc := (rid, Array.copy row) :: !acc;
      true);
  List.rev !acc

let balance_of db t rid =
  Db.with_txn db (fun txn ->
      match Table.get t txn ~rid with
      | Some row -> ( match row.(1) with Value.Int v -> v | _ -> -1)
      | None -> -1)

(* ------------------------------------------------------------------ *)
(* Basic DML *)

let test_insert_get () =
  let db, t = accounts_db () in
  let rid = insert_account db t "alice" 100 in
  check_int "balance" 100 (balance_of db t rid);
  Db.with_txn db (fun txn ->
      match Table.get t txn ~rid with
      | Some row -> (
        match row.(Table.col t "owner") with
        | Value.Str s -> Alcotest.(check string) "owner" "alice" s
        | _ -> Alcotest.fail "owner column not a string")
      | None -> Alcotest.fail "row missing")

let test_update () =
  let db, t = accounts_db () in
  let rid = insert_account db t "bob" 50 in
  let ok = Db.with_txn db (fun txn -> set_col t txn ~rid "balance" (Value.Int 75)) in
  check_bool "updated" true ok;
  check_int "new balance" 75 (balance_of db t rid)

let test_update_missing_row () =
  let db, t = accounts_db () in
  let ok = Db.with_txn db (fun txn -> set_col t txn ~rid:999 "balance" (Value.Int 1)) in
  check_bool "no such row" false ok

let test_delete () =
  let db, t = accounts_db () in
  let rid = insert_account db t "carol" 10 in
  let ok = Db.with_txn db (fun txn -> Table.delete t txn ~rid) in
  check_bool "deleted" true ok;
  Db.with_txn db (fun txn -> check_bool "gone" true (Table.get t txn ~rid = None));
  let again = Db.with_txn db (fun txn -> Table.delete t txn ~rid) in
  check_bool "double delete" false again

let test_multi_statement_txn () =
  let db, t = accounts_db () in
  let a = insert_account db t "a" 100 in
  let b = insert_account db t "b" 100 in
  Db.with_txn db (fun txn ->
      ignore (set_col t txn ~rid:a "balance" (Value.Int 60));
      ignore (set_col t txn ~rid:b "balance" (Value.Int 140)));
  check_int "a" 60 (balance_of db t a);
  check_int "b" 140 (balance_of db t b)

(* ------------------------------------------------------------------ *)
(* Rollback *)

let test_abort_rolls_back_update () =
  let db, t = accounts_db () in
  let rid = insert_account db t "dave" 100 in
  (try
     Db.with_txn db (fun txn ->
         ignore (set_col t txn ~rid "balance" (Value.Int 0));
         failwith "user error")
   with Failure _ -> ());
  check_int "balance restored" 100 (balance_of db t rid)

let test_abort_rolls_back_insert () =
  let db, t = accounts_db () in
  (try
     Db.with_txn db (fun txn ->
         ignore (Table.insert t txn [| Value.Str "ghost"; Value.Int 1 |]);
         failwith "user error")
   with Failure _ -> ());
  Db.with_txn db (fun txn ->
      check_bool "insert rolled back in index" true
        (index_rows t txn ~index:"accounts_by_owner" ~key:[ Value.Str "ghost" ] = []))

let test_abort_rolls_back_delete () =
  let db, t = accounts_db () in
  let rid = insert_account db t "erin" 5 in
  (try
     Db.with_txn db (fun txn ->
         ignore (Table.delete t txn ~rid);
         failwith "user error")
   with Failure _ -> ());
  check_int "row resurrected" 5 (balance_of db t rid)

(* ------------------------------------------------------------------ *)
(* Unique constraints *)

let test_unique_violation_aborts () =
  let db, t = accounts_db () in
  ignore (insert_account db t "frank" 1);
  check_bool "duplicate owner rejected" true
    (try
       ignore (insert_account db t "frank" 2);
       false
     with Txnmgr.Abort _ -> true)

let test_unique_after_delete_ok () =
  let db, t = accounts_db () in
  let rid = insert_account db t "gina" 1 in
  ignore (Db.with_txn db (fun txn -> Table.delete t txn ~rid));
  let rid2 = insert_account db t "gina" 2 in
  check_bool "re-insert after delete" true (rid2 > rid);
  (* the index now holds the deleted row's entry ahead of the live one:
     the check must probe past the first candidate and find the second *)
  check_bool "third insert conflicts with the live row" true
    (match insert_account db t "gina" 3 with
    | _ -> false
    | exception Txnmgr.Abort (Txnmgr.Conflict, _) -> true)

(* ------------------------------------------------------------------ *)
(* Index access *)

let test_index_lookup () =
  let db, t = accounts_db () in
  let rid = insert_account db t "henry" 42 in
  Db.with_txn db (fun txn ->
      match Table.index_lookup_first t txn ~index:"accounts_by_owner" ~key:[ Value.Str "henry" ] with
      | 0 -> Alcotest.fail "index lookup failed"
      | r ->
        check_int "rid" rid r;
        check_bool "balance" true (Value.equal (Table.found_row t txn).(1) (Value.Int 42)))

let test_index_prefix_scan () =
  let db = make_db () in
  let t =
    Db.create_table db ~name:"orders"
      ~schema:[ ("w", Value.T_int); ("d", Value.T_int); ("o", Value.T_int) ]
  in
  Db.create_index db t ~name:"orders_pk" ~cols:[ "w"; "d"; "o" ] ~unique:true;
  Db.with_txn db (fun txn ->
      for w = 1 to 2 do
        for d = 1 to 3 do
          for o = 1 to 4 do
            ignore (Table.insert t txn [| Value.Int w; Value.Int d; Value.Int o |])
          done
        done
      done);
  Db.with_txn db (fun txn ->
      let seen = ref [] in
      Table.index_prefix t txn ~index:"orders_pk" ~prefix:[ Value.Int 1; Value.Int 2 ] (fun _ row ->
          (match row.(2) with Value.Int o -> seen := o :: !seen | _ -> ());
          true);
      Alcotest.(check (list int)) "prefix rows in order" [ 1; 2; 3; 4 ] (List.rev !seen))

(* ------------------------------------------------------------------ *)
(* Column projection ([?cols]) *)

let row_t = Alcotest.(array (testable Value.pp Value.equal))

(* (k, a, b, note), unique on k; row k holds a = 10k, b = 100k *)
let projection_db () =
  let db = make_db () in
  let t =
    Db.create_table db ~name:"proj"
      ~schema:[ ("k", Value.T_int); ("a", Value.T_int); ("b", Value.T_int); ("note", Value.T_str) ]
  in
  Db.create_index db t ~name:"proj_pk" ~cols:[ "k" ] ~unique:true;
  Db.with_txn db (fun txn ->
      for k = 1 to 20 do
        ignore (Table.insert t txn [| Value.Int k; Value.Int (10 * k); Value.Int (100 * k); Value.Str "n" |])
      done);
  (* reclaim the inserts' undo logs: rows without a version chain are
     masked by the decode alone *)
  ignore (Db.gc db);
  (db, t)

let test_projection_nulls_other_cells () =
  let db, t = projection_db () in
  Db.with_txn db (fun txn ->
      (* whole-row reads first, so the scratch rows hold data in every cell *)
      Table.index_prefix t txn ~index:"proj_pk" ~prefix:[] (fun _ _ -> true);
      ignore (Table.index_lookup_first t txn ~index:"proj_pk" ~key:[ Value.Int 3 ]);
      (match Table.index_lookup_first ~cols:[| 1 |] t txn ~index:"proj_pk" ~key:[ Value.Int 4 ] with
      | 0 -> Alcotest.fail "k = 4 not found"
      | _ ->
        Alcotest.check row_t "key and a decoded, the rest Null"
          [| Value.Int 4; Value.Int 40; Value.Null; Value.Null |]
          (Table.found_row t txn));
      let seen = ref 0 in
      Table.index_prefix ~cols:[| 2 |] t txn ~index:"proj_pk" ~prefix:[] (fun _ row ->
          incr seen;
          let k = match row.(0) with Value.Int k -> k | _ -> -1 in
          Alcotest.check row_t "key and b decoded, the rest Null"
            [| Value.Int k; Value.Null; Value.Int (100 * k); Value.Null |]
            row;
          true);
      check_int "every row visited" 20 !seen)

(* A reader whose snapshot predates an update that wrote every payload
   column: the before-image restores the projected column, and the
   columns outside the projection stay Null although the undo delta
   wrote them. *)
let test_projection_at_older_snapshot () =
  let db, t = projection_db () in
  let rid =
    Db.with_txn db (fun txn ->
        match Table.index_lookup_first t txn ~index:"proj_pk" ~key:[ Value.Int 5 ] with
        | 0 -> Alcotest.fail "k = 5 not found"
        | rid -> rid)
  in
  let old_view = ref [||] and new_view = ref [||] in
  let q = Scheduler.Waitq.create () in
  Scheduler.submit (Db.scheduler db) (fun () ->
      let txn =
        Txnmgr.begin_txn (Db.txnmgr db) ~isolation:Txnmgr.Repeatable_read
          ~slot:(Scheduler.current_slot ())
      in
      ignore (Table.get t txn ~rid);
      Scheduler.Waitq.wait q;
      if Table.index_lookup_first ~cols:[| 1 |] t txn ~index:"proj_pk" ~key:[ Value.Int 5 ] > 0 then
        old_view := Array.copy (Table.found_row t txn);
      Txnmgr.commit (Db.txnmgr db) txn);
  Scheduler.submit (Db.scheduler db) (fun () ->
      Scheduler.charge Phoebe_sim.Component.Effective 100_000;
      Db.with_txn db (fun txn ->
          ignore
            (Table.update ~reads:[||] t txn ~rid (fun _ ->
                 [| (1, Value.Int 0); (2, Value.Int 0); (3, Value.Str "updated") |])));
      Scheduler.Waitq.signal_all q);
  Db.run db;
  Alcotest.check row_t "the old snapshot reads the before-image of a"
    [| Value.Int 5; Value.Int 50; Value.Null; Value.Null |]
    !old_view;
  Db.with_txn db (fun txn ->
      if Table.index_lookup_first ~cols:[| 1 |] t txn ~index:"proj_pk" ~key:[ Value.Int 5 ] > 0 then
        new_view := Array.copy (Table.found_row t txn));
  Alcotest.check row_t "a new snapshot reads the update"
    [| Value.Int 5; Value.Int 0; Value.Null; Value.Null |]
    !new_view

(* A key update leaves the old-key entry in the index until GC, for
   older snapshots. A projected lookup of the old key must still drop
   it: the visible version's key (always decoded) no longer matches. *)
let test_projection_filters_stale_entry () =
  let db, t = projection_db () in
  let rid =
    Db.with_txn db (fun txn ->
        match Table.index_lookup_first t txn ~index:"proj_pk" ~key:[ Value.Int 6 ] with
        | 0 -> Alcotest.fail "k = 6 not found"
        | rid -> rid)
  in
  let old_hit = ref 0 in
  let q = Scheduler.Waitq.create () in
  Scheduler.submit (Db.scheduler db) (fun () ->
      let txn =
        Txnmgr.begin_txn (Db.txnmgr db) ~isolation:Txnmgr.Repeatable_read
          ~slot:(Scheduler.current_slot ())
      in
      ignore (Table.get t txn ~rid);
      Scheduler.Waitq.wait q;
      old_hit := Table.index_lookup_first ~cols:[| 1 |] t txn ~index:"proj_pk" ~key:[ Value.Int 6 ];
      Txnmgr.commit (Db.txnmgr db) txn);
  Scheduler.submit (Db.scheduler db) (fun () ->
      Scheduler.charge Phoebe_sim.Component.Effective 100_000;
      Db.with_txn db (fun txn -> ignore (set_col t txn ~rid "k" (Value.Int 60)));
      Scheduler.Waitq.signal_all q);
  Db.run db;
  check_int "the old snapshot still finds k = 6 (entry kept)" rid !old_hit;
  Db.with_txn db (fun txn ->
      check_int "the stale k = 6 entry is filtered" 0
        (Table.index_lookup_first ~cols:[| 1 |] t txn ~index:"proj_pk" ~key:[ Value.Int 6 ]);
      let prefix_hits = ref 0 in
      Table.index_prefix ~cols:[| 1 |] t txn ~index:"proj_pk" ~prefix:[ Value.Int 6 ] (fun _ _ ->
          incr prefix_hits;
          true);
      check_int "the stale entry is filtered from a prefix scan" 0 !prefix_hits;
      match Table.index_lookup_first ~cols:[| 1 |] t txn ~index:"proj_pk" ~key:[ Value.Int 60 ] with
      | 0 -> Alcotest.fail "k = 60 not found"
      | r ->
        check_int "the new key finds the row" rid r;
        Alcotest.check row_t "under its new key" [| Value.Int 60; Value.Int 60; Value.Null; Value.Null |]
          (Table.found_row t txn))

let test_scan_visibility () =
  let db, t = accounts_db () in
  let _r1 = insert_account db t "s1" 1 in
  let r2 = insert_account db t "s2" 2 in
  ignore (Db.with_txn db (fun txn -> Table.delete t txn ~rid:r2));
  Db.with_txn db (fun txn ->
      let seen = ref [] in
      Table.scan t txn (fun _ row -> seen := Value.to_string row.(0) :: !seen);
      Alcotest.(check (list string)) "only live rows" [ "s1" ] (List.rev !seen))

(* ------------------------------------------------------------------ *)
(* Snapshot isolation between interleaved fibers *)

let test_uncommitted_writes_invisible () =
  let db, t = accounts_db () in
  let rid = insert_account db t "iris" 100 in
  let observed = ref (-1) in
  let q = Scheduler.Waitq.create () in
  (* writer: update then park (uncommitted) until reader has looked *)
  Db.submit db (fun txn ->
      ignore (set_col t txn ~rid "balance" (Value.Int 999));
      Scheduler.Waitq.wait q);
  Scheduler.submit (Db.scheduler db) (fun () ->
      (* big enough to flush past the coalescing granule, so the reader
         runs strictly after the writer's (uncommitted) update *)
      Scheduler.charge Phoebe_sim.Component.Effective 100_000;
      Db.with_txn db (fun txn ->
          match Table.get t txn ~rid with
          | Some row -> (match row.(1) with Value.Int v -> observed := v | _ -> ())
          | None -> observed := -2);
      Scheduler.Waitq.signal_all q);
  Db.run db;
  check_int "reader saw committed value" 100 !observed

let test_read_committed_sees_new_commits () =
  let db, t = accounts_db () in
  let rid = insert_account db t "jack" 1 in
  let before = ref 0 and after = ref 0 in
  let q = Scheduler.Waitq.create () in
  Scheduler.submit (Db.scheduler db) (fun () ->
      let txn = Txnmgr.begin_txn (Db.txnmgr db) ~isolation:Txnmgr.Read_committed ~slot:(Scheduler.current_slot ()) in
      (match Table.get t txn ~rid with Some row -> (match row.(1) with Value.Int v -> before := v | _ -> ()) | None -> ());
      Scheduler.Waitq.wait q;
      (* statement boundary: read committed refreshes and sees the new value *)
      (match Table.get t txn ~rid with Some row -> (match row.(1) with Value.Int v -> after := v | _ -> ()) | None -> ());
      Txnmgr.commit (Db.txnmgr db) txn);
  Scheduler.submit (Db.scheduler db) (fun () ->
      Scheduler.charge Phoebe_sim.Component.Effective 100_000;
      Db.with_txn db (fun txn -> ignore (set_col t txn ~rid "balance" (Value.Int 2)));
      Scheduler.Waitq.signal_all q);
  Db.run db;
  check_int "before" 1 !before;
  check_int "read committed sees commit" 2 !after

let test_repeatable_read_stable () =
  let db, t = accounts_db () in
  let rid = insert_account db t "kate" 1 in
  let before = ref 0 and after = ref 0 in
  let q = Scheduler.Waitq.create () in
  Scheduler.submit (Db.scheduler db) (fun () ->
      let txn = Txnmgr.begin_txn (Db.txnmgr db) ~isolation:Txnmgr.Repeatable_read ~slot:(Scheduler.current_slot ()) in
      (match Table.get t txn ~rid with Some row -> (match row.(1) with Value.Int v -> before := v | _ -> ()) | None -> ());
      Scheduler.Waitq.wait q;
      (match Table.get t txn ~rid with Some row -> (match row.(1) with Value.Int v -> after := v | _ -> ()) | None -> ());
      Txnmgr.commit (Db.txnmgr db) txn);
  Scheduler.submit (Db.scheduler db) (fun () ->
      Scheduler.charge Phoebe_sim.Component.Effective 100_000;
      Db.with_txn db (fun txn -> ignore (set_col t txn ~rid "balance" (Value.Int 2)));
      Scheduler.Waitq.signal_all q);
  Db.run db;
  check_int "before" 1 !before;
  check_int "repeatable read stays at snapshot" 1 !after

(* ------------------------------------------------------------------ *)
(* Write-write conflicts *)

let test_concurrent_increments_serialize () =
  (* Read committed permits lost updates for read-then-write patterns;
     repeatable read's first-committer-wins plus the retry loop makes
     increments atomic. *)
  let db, t = accounts_db () in
  let rid = insert_account db t "counter" 0 in
  for _ = 1 to 50 do
    Db.submit ~isolation:Txnmgr.Repeatable_read db (fun txn ->
        match Table.get t txn ~rid with
        | Some row ->
          let v = match row.(1) with Value.Int v -> v | _ -> 0 in
          Scheduler.charge Phoebe_sim.Component.Effective 5_000;
          ignore (set_col t txn ~rid "balance" (Value.Int (v + 1)))
        | None -> ())
  done;
  Db.run db;
  check_int "no lost updates under RR" 50 (balance_of db t rid)

let test_rr_first_committer_wins () =
  let db, t = accounts_db () in
  let rid = insert_account db t "rr" 0 in
  let aborted = ref 0 in
  let attempt () =
    Scheduler.submit (Db.scheduler db) (fun () ->
        let txn =
          Txnmgr.begin_txn (Db.txnmgr db) ~isolation:Txnmgr.Repeatable_read
            ~slot:(Scheduler.current_slot ())
        in
        match
          ignore (Table.get t txn ~rid);
          Scheduler.charge Phoebe_sim.Component.Effective 50_000;
          set_col t txn ~rid "balance" (Value.Int 1)
        with
        | _ -> Txnmgr.commit (Db.txnmgr db) txn
        | exception Txnmgr.Abort _ ->
          incr aborted;
          Txnmgr.abort (Db.txnmgr db) txn ~rollback:(fun _ -> ()))
  in
  attempt ();
  attempt ();
  Db.run db;
  check_int "exactly one aborted" 1 !aborted

let test_deadlock_detected_and_resolved () =
  let db, t = accounts_db () in
  let a = insert_account db t "x" 0 in
  let b = insert_account db t "y" 0 in
  (* Two RR transactions updating (a then b) and (b then a), paused in
     between so they collide. Deadlock detection must abort one; the
     retry loop then lets both finish. *)
  let submit_pair first second =
    Db.submit ~isolation:Txnmgr.Repeatable_read db (fun txn ->
        ignore (set_col t txn ~rid:first "balance" (Value.Int 1));
        Scheduler.charge Phoebe_sim.Component.Effective 50_000;
        Scheduler.yield Scheduler.Low;
        ignore (set_col t txn ~rid:second "balance" (Value.Int 2)))
  in
  submit_pair a b;
  submit_pair b a;
  Db.run db;
  check_bool "both eventually committed" true (Db.committed db >= 4);
  check_bool "someone aborted along the way" true (Db.aborted db >= 1);
  (* whichever pair committed last wrote 1 to its first row and 2 to its
     second: the final balances are {1, 2} in some order *)
  Alcotest.(check (list int)) "final balances" [ 1; 2 ]
    (List.sort compare [ balance_of db t a; balance_of db t b ])

(* ------------------------------------------------------------------ *)
(* Transaction deadlines and admission control *)

let test_txn_deadline_aborts_stalled_wait () =
  let cfg = { small_config with Config.n_workers = 1; txn_deadline_ns = 100_000 } in
  let db, t = accounts_db ~cfg () in
  let rid = insert_account db t "d" 0 in
  let eng = Db.engine db in
  (* holder: writes the row, then stalls on "I/O" for a millisecond
     while still active *)
  Scheduler.submit (Db.scheduler db) (fun () ->
      Db.with_txn db (fun txn ->
          ignore (set_col t txn ~rid "balance" (Value.Int 1));
          Scheduler.io_wait (fun resume ->
              Phoebe_sim.Engine.schedule eng ~delay:1_000_000 (fun () -> resume ()))));
  (* waiter: blocks behind the holder and hits its 100 µs deadline long
     before the holder resumes *)
  let reason = ref None in
  Scheduler.submit (Db.scheduler db) (fun () ->
      try Db.with_txn db (fun txn -> ignore (set_col t txn ~rid "balance" (Value.Int 2)))
      with Txnmgr.Abort (r, _) -> reason := Some r);
  Db.run db;
  check_bool "aborted with reason Deadline" true (!reason = Some Txnmgr.Deadline);
  let s = Db.stats db in
  check_int "deadline abort counted" 1 s.Db.deadline_aborts;
  check_bool "a wait timed out" true (s.Db.wait_timeouts >= 1);
  (* the stalled holder still committed; the timed-out waiter rolled back *)
  check_int "holder's write survived" 1 (balance_of db t rid)

let test_no_deadline_means_no_timeouts () =
  (* Same shape without a deadline: the waiter simply outwaits the stall. *)
  let cfg = { small_config with Config.n_workers = 1 } in
  let db, t = accounts_db ~cfg () in
  let rid = insert_account db t "d" 0 in
  let eng = Db.engine db in
  Scheduler.submit (Db.scheduler db) (fun () ->
      Db.with_txn db (fun txn ->
          ignore (set_col t txn ~rid "balance" (Value.Int 1));
          Scheduler.io_wait (fun resume ->
              Phoebe_sim.Engine.schedule eng ~delay:1_000_000 (fun () -> resume ()))));
  Db.submit db (fun txn -> ignore (set_col t txn ~rid "balance" (Value.Int 2)));
  Db.run db;
  let s = Db.stats db in
  check_int "no wait ever timed out" 0 s.Db.wait_timeouts;
  check_int "no deadline aborts" 0 s.Db.deadline_aborts;
  check_int "waiter won in the end" 2 (balance_of db t rid)

let test_admission_sheds_over_cap () =
  let cfg =
    {
      small_config with
      Config.admission = { Config.enabled = true; max_inflight = 2; max_lock_wait_p95_ns = 0 };
    }
  in
  let db, t = accounts_db ~cfg () in
  let accepted = ref 0 and shed = ref 0 in
  for i = 1 to 5 do
    match
      Db.submit db (fun txn ->
          ignore (Table.insert t txn [| Value.Str (string_of_int i); Value.Int i |]))
    with
    | () -> incr accepted
    | exception Db.Overloaded -> incr shed
  done;
  check_int "cap admitted" 2 !accepted;
  check_int "excess shed" 3 !shed;
  check_int "sheds counted" 3 (Db.sheds db);
  check_int "stats agree" 3 (Db.stats db).Db.sheds;
  Db.run db;
  check_int "in-flight drained" 0 (Db.inflight db);
  (* capacity freed: submissions are admitted again *)
  (match Db.submit db (fun txn -> ignore (Table.insert t txn [| Value.Str "late"; Value.Int 9 |])) with
  | () -> ()
  | exception Db.Overloaded -> Alcotest.fail "still shedding after drain");
  Db.run db;
  check_int "admitted transactions committed" 3 (Db.committed db)

(* ------------------------------------------------------------------ *)
(* Banking invariant under concurrency *)

let test_transfers_conserve_money () =
  let db, t = accounts_db () in
  let n = 10 in
  let rids = Array.init n (fun i -> insert_account db t (Printf.sprintf "acct%d" i) 100) in
  let rng = Phoebe_util.Prng.create ~seed:7 in
  for _ = 1 to 200 do
    let from_ = rids.(Phoebe_util.Prng.int rng n) and to_ = rids.(Phoebe_util.Prng.int rng n) in
    let amount = Phoebe_util.Prng.int rng 20 in
    if from_ <> to_ then
      Db.submit ~isolation:Txnmgr.Repeatable_read db (fun txn ->
          let bal rid =
            match Table.get t txn ~rid with
            | Some row -> ( match row.(1) with Value.Int v -> v | _ -> 0)
            | None -> 0
          in
          let fb = bal from_ in
          if fb >= amount then begin
            ignore (set_col t txn ~rid:from_ "balance" (Value.Int (fb - amount)));
            let tb = bal to_ in
            ignore (set_col t txn ~rid:to_ "balance" (Value.Int (tb + amount)))
          end)
  done;
  Db.run db;
  let total = Array.fold_left (fun acc rid -> acc + balance_of db t rid) 0 rids in
  check_int "money conserved" (n * 100) total

(* ------------------------------------------------------------------ *)
(* GC *)

let test_gc_reclaims_undo () =
  let db, t = accounts_db () in
  let rid = insert_account db t "gc" 0 in
  for i = 1 to 200 do
    Db.submit db (fun txn -> ignore (set_col t txn ~rid "balance" (Value.Int i)))
  done;
  Db.run db;
  let before = balance_of db t rid in
  check_bool "some update committed" true (before >= 1 && before <= 200);
  let reclaimed = Db.gc db in
  check_bool "gc reclaimed the update history" true (reclaimed > 0);
  check_int "all undo memory released" 0 (Db.stats db).Db.undo_bytes;
  check_int "gc does not change the visible value" before (balance_of db t rid)

let test_gc_removes_deleted_tuples_from_index () =
  let db, t = accounts_db () in
  let rid = insert_account db t "purge" 0 in
  ignore (Db.with_txn db (fun txn -> Table.delete t txn ~rid));
  (* Enough committed work through fibers to trigger housekeeping GC. *)
  for i = 0 to 99 do
    Db.submit db (fun txn ->
        ignore (Table.insert t txn [| Value.Str (Printf.sprintf "filler%d" i); Value.Int 0 |]))
  done;
  Db.run db;
  ignore (Db.gc db);
  Db.with_txn db (fun txn ->
      check_bool "index entry stripped or invisible" true
        (index_rows t txn ~index:"accounts_by_owner" ~key:[ Value.Str "purge" ] = []))

(* GC inside a fiber, so its charges land in the scheduler's counters:
   returns (undo entries reclaimed, Effective, Buffer instructions). *)
let gc_in_fiber db =
  let sched = Db.scheduler db in
  let ctrs = Scheduler.counters sched in
  let get c = Phoebe_sim.Counters.get ctrs c in
  let eff0 = get Phoebe_sim.Component.Effective and buf0 = get Phoebe_sim.Component.Buffer in
  let reclaimed = ref 0 in
  Scheduler.submit sched (fun () -> reclaimed := Db.gc db);
  Db.run db;
  (!reclaimed, get Phoebe_sim.Component.Effective - eff0, get Phoebe_sim.Component.Buffer - buf0)

let inserts_ok db t owner =
  match insert_account db t owner 0 with _ -> true | exception Txnmgr.Abort _ -> false

let test_gc_non_key_update_is_free () =
  let db, t = accounts_db () in
  let rid = insert_account db t "carol" 10 in
  ignore (gc_in_fiber db);
  ignore (Db.with_txn db (fun txn -> set_col t txn ~rid "balance" (Value.Int 11)));
  let reclaimed, effective, buffer = gc_in_fiber db in
  check_bool "the update's undo was reclaimed" true (reclaimed > 0);
  check_int "no Effective instructions" 0 effective;
  check_int "no tuple read (no buffer access)" 0 buffer;
  check_int "value intact" 11 (balance_of db t rid)

(* A key-changing update keeps its old-key index entry for older
   snapshots until GC; the entry makes the old key look taken. *)
let test_gc_drops_old_key_entry () =
  let db, t = accounts_db () in
  let rid = insert_account db t "carol" 10 in
  ignore (Db.with_txn db (fun txn -> set_col t txn ~rid "owner" (Value.Str "dave")));
  check_bool "old key still indexed before GC" false (inserts_ok db t "carol");
  let _, effective, _ = gc_in_fiber db in
  check_bool "a key update costs GC a tuple read" true (effective > 0);
  check_bool "old key free after GC" true (inserts_ok db t "carol");
  Db.with_txn db (fun txn ->
      match index_rows t txn ~index:"accounts_by_owner" ~key:[ Value.Str "dave" ] with
      | [ (r, _) ] -> check_int "new key finds the row" rid r
      | l -> Alcotest.failf "new key finds %d rows" (List.length l))

(* Rolling back a key-changing update restores the row and removes the
   new-key entry the update added. *)
let test_rollback_drops_new_key_entry () =
  let db, t = accounts_db () in
  let rid = insert_account db t "erin" 10 in
  (try
     Db.with_txn db (fun txn ->
         ignore (set_col t txn ~rid "owner" (Value.Str "frank"));
         failwith "user error")
   with Failure _ -> ());
  check_bool "new key free after rollback" true (inserts_ok db t "frank");
  Db.with_txn db (fun txn ->
      match index_rows t txn ~index:"accounts_by_owner" ~key:[ Value.Str "erin" ] with
      | [ (r, row) ] ->
        check_int "old key finds the row" rid r;
        check_bool "owner restored" true (Value.equal row.(0) (Value.Str "erin"))
      | l -> Alcotest.failf "old key finds %d rows" (List.length l))

(* ------------------------------------------------------------------ *)
(* The write path locates its row once *)

module Table_tree = Phoebe_btree.Table_tree
module Bufmgr = Phoebe_storage.Bufmgr
module Pax = Phoebe_storage.Pax
module Cost = Phoebe_sim.Cost

(* Table-tree probes one statement charges, run on a fresh row: its
   Effective instructions on a database whose probe costs 1,000 more,
   less those on one with the default cost. *)
let table_probes stmt =
  let effective extra =
    let base = small_config.Config.cost in
    let cost = { base with Cost.btree_search_per_level = base.Cost.btree_search_per_level + extra } in
    let db, t = accounts_db ~cfg:{ small_config with Config.cost } () in
    let rid = insert_account db t "probed" 10 in
    let counters = Scheduler.counters (Db.scheduler db) in
    let now () = Phoebe_sim.Counters.get counters Phoebe_sim.Component.Effective in
    let spent = ref 0 in
    Db.submit db (fun txn ->
        let before = now () in
        check_bool "the statement hit its row" true (stmt t txn ~rid);
        spent := now () - before);
    Db.run db;
    !spent
  in
  (effective 1_000 - effective 0) / 1_000

let test_uncontended_write_probes_once () =
  check_int "update" 1 (table_probes (fun t txn ~rid -> set_col t txn ~rid "balance" (Value.Int 11)));
  check_int "delete" 1 (table_probes (fun t txn ~rid -> Table.delete t txn ~rid))

let frame_of t rid =
  match Table_tree.locate ~touch:false (Table.tree t) ~row_id:rid with
  | -1 | -2 -> Alcotest.fail "row not in a leaf"
  | slot -> (Table_tree.located_frame (Table.tree t), slot)

(* A writer parks on a tuple lock; while it waits, its leaf leaves the
   pool and faults back in as a new frame. The write must re-locate and
   land on the reloaded frame, where reads and a restore find it, not on
   the evicted frame it first located. The lock's holder writes nothing:
   a page with an uncommitted write stays resident. *)
let test_write_after_leaf_reloaded () =
  let db, t = accounts_db () in
  let rid = insert_account db t "parked" 10 in
  let snapshot = Checkpoint.take db in
  let first, _ = frame_of t rid in
  let sched = Db.scheduler db in
  let release = Scheduler.Waitq.create () in
  Scheduler.submit sched (fun () ->
      Db.with_txn db (fun txn ->
          let txns = Db.txnmgr db in
          let twin = Txnmgr.twin_for_page txns ~page_id:(Bufmgr.page_id first) in
          let entry = Phoebe_txn.Twin.find_or_add twin ~rid in
          Txnmgr.lock_tuple txns txn entry;
          Scheduler.Waitq.wait release;
          Txnmgr.unlock_tuple txns txn entry));
  Scheduler.submit sched (fun () ->
      Scheduler.charge Phoebe_sim.Component.Effective 100_000;
      Db.with_txn db (fun txn ->
          let c = Table.col t "balance" in
          ignore
            (Table.update ~reads:[| c |] t txn ~rid (fun row ->
                 match row.(c) with
                 | Value.Int v -> [| (c, Value.Int (v + 1)) |]
                 | _ -> Alcotest.fail "balance not an int"))));
  Scheduler.submit sched (fun () ->
      (* past the eviction recency guard, with the writer parked *)
      Scheduler.charge Phoebe_sim.Component.Effective 2_000_000;
      let buf = Db.buffer db in
      Bufmgr.set_budget buf ~budget_bytes:1;
      let rec evict passes =
        if Bufmgr.is_resident first && passes > 0 then begin
          for partition = 0 to Bufmgr.n_partitions buf - 1 do
            Bufmgr.maintain buf ~partition
          done;
          Scheduler.charge Phoebe_sim.Component.Effective 100_000;
          evict (passes - 1)
        end
      in
      evict 100;
      check_bool "the first frame left the pool" false (Bufmgr.is_resident first);
      Bufmgr.set_budget buf ~budget_bytes:small_config.Config.buffer_bytes;
      check_bool "the leaf faulted back in as a new frame" true (fst (frame_of t rid) != first);
      Scheduler.Waitq.signal_all release);
  Db.run db;
  check_int "the write landed on the reloaded frame" 11 (balance_of db t rid);
  ignore (Db.crash db);
  let db2, _ = Checkpoint.restore ~from:db ~snapshot small_config in
  check_int "the write survives a restore" 11 (balance_of db2 (Db.table db2 "accounts") rid)

(* Rolling back an insert delete-marks its slot and removes its index
   entries. Clearing the mark by hand then makes the row visible to
   every snapshot, so only a missing entry keeps the index from finding
   it. *)
let test_rollback_insert_unindexes () =
  let db, t = accounts_db () in
  let rid = ref 0 in
  (try
     Db.with_txn db (fun txn ->
         rid := Table.insert t txn [| Value.Str "ghost"; Value.Int 1 |];
         failwith "user error")
   with Failure _ -> ());
  let frame, slot = frame_of t !rid in
  check_bool "the slot is delete-marked" true (Pax.is_deleted (Bufmgr.payload frame) ~slot);
  check_bool "the mark clears" true (Table_tree.undelete (Table.tree t) ~row_id:!rid);
  Db.with_txn db (fun txn ->
      check_bool "the row reads by rid" true (Table.get t txn ~rid:!rid <> None);
      check_bool "no index entry" true
        (index_rows t txn ~index:"accounts_by_owner" ~key:[ Value.Str "ghost" ] = []))

(* Replay is idempotent on the index side: an insert applied again over
   the live slot it filled (a leaf image that already holds the row)
   adds no second entry; one applied over a live slot holding another
   key moves the entry to the replayed key; one applied over a
   delete-marked slot, whose entries went with the delete, adds its
   entry back once. *)
let test_replayed_insert_indexed_once () =
  let db, t = accounts_db () in
  let rid = Table_tree.next_row_id (Table.tree t) in
  let owners key =
    Db.with_txn db (fun txn -> List.map fst (index_rows t txn ~index:"accounts_by_owner" ~key:[ Value.Str key ]))
  in
  let row owner = [| Value.Str owner; Value.Int 5 |] in
  Table.raw_insert t ~rid (row "replayed");
  Table.raw_insert t ~rid (row "replayed");
  Alcotest.(check (list int)) "the twice-applied insert is visited once" [ rid ] (owners "replayed");
  Table.raw_insert t ~rid (row "moved");
  Alcotest.(check (list int)) "the replayed key finds the row" [ rid ] (owners "moved");
  check_bool "the overwritten key is free" true (insert_account db t "replayed" 1 > rid);
  Table.raw_delete t ~rid;
  Alcotest.(check (list int)) "the delete drops the entry" [] (owners "moved");
  Table.raw_insert t ~rid (row "moved");
  Alcotest.(check (list int)) "re-applied over the delete mark, indexed once" [ rid ] (owners "moved")

(* ------------------------------------------------------------------ *)
(* The steal guard *)

(* The guard's two parts on [rid]'s page: the test [unsafe], and the
   [strip] that copies exactly when the test holds. Returns the strip's
   result. *)
let guard_agrees db t rid ~label ~unsafe =
  let frame, _ = frame_of t rid in
  let guard = Bufmgr.steal_guard (Db.buffer db) in
  let page_id = Bufmgr.page_id frame and p = Bufmgr.payload frame in
  check_bool (label ^ ": unsafe") unsafe (guard.Bufmgr.unsafe ~page_id p);
  let image = guard.Bufmgr.strip ~page_id p in
  check_bool (label ^ ": strip copies exactly when unsafe") unsafe (image != p);
  image

let value_eq : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

let cell image t rid col =
  match Pax.find image ~row_id:rid with
  | -1 -> Alcotest.fail "row not on the page"
  | slot -> (Pax.is_deleted image ~slot, Pax.get_col image ~slot ~col:(Table.col t col))

(* Every shape a page's twin can take: none, a durable head, a head
   committed but still in its durability wait, and uncommitted Created,
   Updated and Deleted heads. A stripped image shows the durably
   committed row; the live page keeps the writer's. *)
let test_steal_guard_parts_agree () =
  let db0, t0 = accounts_db () in
  let rid = insert_account db0 t0 "alice" 10 in
  let snapshot = Checkpoint.take db0 in
  ignore (Db.crash db0);
  (* a restored page faults in with no twin *)
  let db, _ = Checkpoint.restore ~from:db0 ~snapshot small_config in
  let t = Db.table db "accounts" in
  let page_id = Bufmgr.page_id (fst (frame_of t rid)) in
  check_bool "no twin" true (Txnmgr.twin_of_page (Db.txnmgr db) ~page_id = None);
  ignore (guard_agrees db t rid ~label:"no twin" ~unsafe:false);
  let txn = Db.begin_txn db in
  let fresh = Table.insert t txn [| Value.Str "bob"; Value.Int 5 |] in
  let image = guard_agrees db t rid ~label:"uncommitted Created" ~unsafe:true in
  check_bool "the stripped insert is delete-marked" true (fst (cell image t fresh "owner"));
  Db.abort_txn db txn;
  let txn = Db.begin_txn db in
  ignore (set_col t txn ~rid "balance" (Value.Int 99));
  let image = guard_agrees db t rid ~label:"uncommitted Updated" ~unsafe:true in
  Alcotest.check value_eq "the stripped update shows the before-image" (Value.Int 10)
    (snd (cell image t rid "balance"));
  Alcotest.check value_eq "the live page keeps the update" (Value.Int 99)
    (snd (cell (Bufmgr.payload (fst (frame_of t rid))) t rid "balance"));
  Db.abort_txn db txn;
  let txn = Db.begin_txn db in
  check_bool "deleted" true (Table.delete t txn ~rid);
  let image = guard_agrees db t rid ~label:"uncommitted Deleted" ~unsafe:true in
  check_bool "the stripped delete is unmarked" false (fst (cell image t rid "owner"));
  Db.abort_txn db txn;
  Db.checkpoint db;
  ignore (guard_agrees db t rid ~label:"durable head" ~unsafe:false);
  (* A commit is stamped before its WAL flush is durable: a fiber polls
     the row's head while another commits, and tests the guard in that
     window. *)
  let sched = Db.scheduler db and txns = Db.txnmgr db in
  let in_window = ref false in
  Scheduler.submit sched (fun () ->
      Db.with_txn db (fun txn -> ignore (set_col t txn ~rid "balance" (Value.Int 12))));
  Scheduler.submit sched (fun () ->
      let rec poll fuel =
        match Txnmgr.chain_head txns ~page_id ~rid with
        | Some u
          when Phoebe_txn.Undo.is_committed u
               && u.Phoebe_txn.Undo.ets > Txnmgr.durable_commit_ts txns ~slot:u.Phoebe_txn.Undo.slot
          ->
          in_window := true;
          let image = guard_agrees db t rid ~label:"committed, not yet durable" ~unsafe:true in
          Alcotest.check value_eq "the stripped image predates the commit" (Value.Int 10)
            (snd (cell image t rid "balance"))
        | _ when fuel > 0 ->
          Scheduler.charge Phoebe_sim.Component.Effective 100;
          poll (fuel - 1)
        | _ -> ()
      in
      poll 100_000);
  Db.run db;
  check_bool "the poller saw the commit before it was durable" true !in_window;
  ignore (guard_agrees db t rid ~label:"after the durability wait" ~unsafe:false)

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* The manifest walk under a checkpoint writes every dirty leaf back. A
   leaf holding an uncommitted update goes to the store as its
   before-image and stays dirty, so its full image is written again
   later. Deciding that the page is unsafe copies nothing. *)
let test_stolen_write_back_strips () =
  let db, t = accounts_db () in
  let rid = insert_account db t "carol" 10 in
  Db.checkpoint db;
  let txn = Db.begin_txn db in
  ignore (set_col t txn ~rid "balance" (Value.Int 77));
  let frame, _ = frame_of t rid in
  let page_id = Bufmgr.page_id frame and p = Bufmgr.payload frame in
  ignore (Table_tree.manifest (Table.tree t));
  let stored = Phoebe_io.Pagestore.read (Bufmgr.store (Db.buffer db)) ~page_id in
  Alcotest.check value_eq "the store holds the before-image" (Value.Int 10)
    (snd (cell (Pax.decode stored) t rid "balance"));
  check_bool "the frame stays dirty" true (Bufmgr.is_dirty frame);
  let guard = Bufmgr.steal_guard (Db.buffer db) in
  let test () = ignore (guard.Bufmgr.unsafe ~page_id p) in
  let copy () = ignore (Pax.copy p) in
  test ();
  let test_words = minor_words_of test and copy_words = minor_words_of copy in
  if test_words >= copy_words then
    Alcotest.failf "unsafe allocated %.0f words, a page copy %.0f" test_words copy_words;
  Db.abort_txn db txn

(* ------------------------------------------------------------------ *)
(* Freeze *)

let test_freeze_and_read_back () =
  let db = make_db () in
  let t = Db.create_table db ~name:"history" ~schema:[ ("n", Value.T_int); ("s", Value.T_str) ] in
  Db.with_txn db (fun txn ->
      for i = 1 to 2000 do
        ignore (Table.insert t txn [| Value.Int i; Value.Str (Printf.sprintf "h%d" (i mod 7)) |])
      done);
  (* decay away the load-time heat so the prefix freezes *)
  for _ = 1 to 8 do
    Phoebe_btree.Table_tree.decay_access_counts (Table.tree t)
  done;
  let frozen = Db.freeze_tables db in
  check_bool "many tuples frozen" true (frozen > 500);
  Db.with_txn db (fun txn ->
      match Table.get t txn ~rid:1 with
      | Some row -> check_bool "frozen row readable" true (row.(0) = Value.Int 1)
      | None -> Alcotest.fail "frozen row lost");
  (* frozen rows can still be updated (out-of-place) *)
  let ok = Db.with_txn db (fun txn -> set_col t txn ~rid:1 "s" (Value.Str "warmed")) in
  check_bool "frozen update ok" true ok;
  Db.with_txn db (fun txn ->
      let found = ref false in
      Table.scan t txn (fun _ row -> if row.(1) = Value.Str "warmed" then found := true);
      check_bool "updated version findable" true !found)

(* ------------------------------------------------------------------ *)
(* Recovery *)

let same_ddl () =
  let db = make_db () in
  let t =
    Db.create_table db ~name:"accounts"
      ~schema:[ ("owner", Value.T_str); ("balance", Value.T_int) ]
  in
  Db.create_index db t ~name:"accounts_by_owner" ~cols:[ "owner" ] ~unique:true;
  (db, t)

let test_recovery_end_to_end () =
  let db1, t1 = same_ddl () in
  let a = insert_account db1 t1 "alice" 100 in
  let b = insert_account db1 t1 "bob" 50 in
  ignore (Db.with_txn db1 (fun txn -> set_col t1 txn ~rid:a "balance" (Value.Int 80)));
  ignore (Db.with_txn db1 (fun txn -> Table.delete t1 txn ~rid:b));
  (* an aborted transaction must not survive recovery *)
  (try
     Db.with_txn db1 (fun txn ->
         ignore (Table.insert t1 txn [| Value.Str "phantom"; Value.Int 1 |]);
         failwith "crash before commit")
   with Failure _ -> ());
  Db.checkpoint db1;
  (* "crash": build a fresh instance with identical DDL and replay. *)
  let db2, t2 = same_ddl () in
  let report = Db.replay_wal db2 ~from:(Wal.store (Db.wal db1)) in
  check_bool "some ops replayed" true (report.Phoebe_wal.Recovery.ops_replayed >= 4);
  check_int "alice recovered" 80 (balance_of db2 t2 a);
  Db.with_txn db2 (fun txn ->
      check_bool "bob stays deleted" true (Table.get t2 txn ~rid:b = None);
      check_bool "phantom absent" true
        (index_rows t2 txn ~index:"accounts_by_owner" ~key:[ Value.Str "phantom" ] = []))

let test_recovery_after_concurrent_run () =
  let db1, t1 = same_ddl () in
  let rids = Array.init 8 (fun i -> insert_account db1 t1 (Printf.sprintf "c%d" i) 100) in
  let rng = Phoebe_util.Prng.create ~seed:3 in
  for _ = 1 to 100 do
    let rid = rids.(Phoebe_util.Prng.int rng 8) in
    let amount = Phoebe_util.Prng.int rng 10 in
    Db.submit db1 (fun txn ->
        match Table.get t1 txn ~rid with
        | Some row ->
          let v = match row.(1) with Value.Int v -> v | _ -> 0 in
          ignore (set_col t1 txn ~rid "balance" (Value.Int (v + amount)))
        | None -> ())
  done;
  Db.run db1;
  Db.checkpoint db1;
  let db2, t2 = same_ddl () in
  ignore (Db.replay_wal db2 ~from:(Wal.store (Db.wal db1)));
  Array.iter
    (fun rid -> check_int "balance identical after recovery" (balance_of db1 t1 rid) (balance_of db2 t2 rid))
    rids

let test_table_lock_blocks_dml () =
  let db, t = accounts_db () in
  let rid = insert_account db t "locked" 1 in
  let order = ref [] in
  let q = Scheduler.Waitq.create () in
  (* DDL-style transaction: exclusive table lock, holds it while parked *)
  Scheduler.submit (Db.scheduler db) (fun () ->
      Db.with_txn db (fun txn ->
          Table.lock_exclusive t txn;
          order := `Locked :: !order;
          Scheduler.Waitq.wait q;
          order := `Released :: !order));
  (* concurrent DML must wait for the exclusive holder *)
  Scheduler.submit (Db.scheduler db) (fun () ->
      Scheduler.charge Phoebe_sim.Component.Effective 100_000;
      Db.with_txn db (fun txn ->
          ignore (set_col t txn ~rid "balance" (Value.Int 2));
          order := `Dml :: !order));
  Phoebe_sim.Engine.schedule (Db.engine db) ~delay:1_000_000 (fun () -> Scheduler.Waitq.signal_all q);
  Db.run db;
  (match List.rev !order with
  | [ `Locked; `Released; `Dml ] -> ()
  | l -> Alcotest.failf "DML did not wait for the table lock (%d events)" (List.length l));
  check_int "dml applied after release" 2 (balance_of db t rid)

let test_table_lock_shared_dml_compatible () =
  (* plain DML transactions do not block each other on the table lock *)
  let db, t = accounts_db () in
  let a = insert_account db t "s1" 0 and b = insert_account db t "s2" 0 in
  for _ = 1 to 20 do
    Db.submit db (fun txn -> ignore (set_col t txn ~rid:a "balance" (Value.Int 1)));
    Db.submit db (fun txn -> ignore (set_col t txn ~rid:b "balance" (Value.Int 1)))
  done;
  Db.run db;
  check_bool "all dml committed" true (Db.committed db >= 42)

(* ------------------------------------------------------------------ *)
(* The index-based update *)

let row_of db t rid =
  Db.with_txn db (fun txn ->
      match Table.get t txn ~rid with Some row -> Array.copy row | None -> Alcotest.fail "row missing")

let rid_of_k db t k =
  Db.with_txn db (fun txn ->
      match Table.index_lookup_first t txn ~index:"proj_pk" ~key:[ Value.Int k ] with
      | 0 -> Alcotest.failf "k = %d not found" k
      | rid -> rid)

(* The closure sees its declared columns and Null elsewhere, even after
   whole-row reads left data in every cell of the scratch ring. *)
let test_update_projects_closure_row () =
  let db, t = projection_db () in
  let rid = rid_of_k db t 4 in
  let seen = ref [||] in
  let ok =
    Db.with_txn db (fun txn ->
        Table.index_prefix t txn ~index:"proj_pk" ~prefix:[] (fun _ _ -> true);
        Table.update ~reads:[| Table.col t "b" |] t txn ~rid (fun row ->
            seen := Array.copy row;
            match row.(2) with
            | Value.Int b -> [| (2, Value.Int (b + 1)) |]
            | _ -> Alcotest.fail "b not decoded"))
  in
  check_bool "updated" true ok;
  Alcotest.check row_t "the closure saw b only"
    [| Value.Null; Value.Null; Value.Int 400; Value.Null |]
    !seen;
  Alcotest.check row_t "the write landed, the other cells kept"
    [| Value.Int 4; Value.Int 40; Value.Int 401; Value.Str "n" |]
    (row_of db t rid)

(* A rollback restores every written column, whether the closure read it
   (its cell is reused for the before-image) or not (read from the page). *)
let test_update_rollback_restores_before_image () =
  let db, t = projection_db () in
  let rid = rid_of_k db t 7 in
  let before = row_of db t rid in
  (try
     Db.with_txn db (fun txn ->
         ignore
           (Table.update ~reads:[| 1 |] t txn ~rid (fun row ->
                match row.(1) with
                | Value.Int a -> [| (1, Value.Int (a * 2)); (2, Value.Int 0); (3, Value.Str "gone") |]
                | _ -> Alcotest.fail "a not decoded"));
         Alcotest.check row_t "the transaction sees its own write"
           [| Value.Int 7; Value.Int 140; Value.Int 0; Value.Str "gone" |]
           (match Table.get t txn ~rid with Some row -> Array.copy row | None -> [||]);
         failwith "abort")
   with Failure _ -> ());
  Alcotest.check row_t "every written column restored" before (row_of db t rid)

(* Writing a key column from a closure that does not read it still adds
   the new-key index entry. *)
let test_update_key_column_adds_entry () =
  let db, t = projection_db () in
  let rid = rid_of_k db t 9 in
  let ok =
    Db.with_txn db (fun txn -> Table.update ~reads:[||] t txn ~rid (fun _ -> [| (0, Value.Int 90) |]))
  in
  check_bool "updated" true ok;
  check_int "found under the new key" rid (rid_of_k db t 90);
  Db.with_txn db (fun txn ->
      check_int "the old key no longer matches" 0
        (Table.index_lookup_first t txn ~index:"proj_pk" ~key:[ Value.Int 9 ]))

let test_col_resolves_names () =
  let _, t = projection_db () in
  check_int "b is column 2" 2 (Table.col t "b");
  match Table.col t "nope" with
  | _ -> Alcotest.fail "an unknown column must raise"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "phoebe_core"
    [
      ( "dml",
        [
          Alcotest.test_case "insert/get" `Quick test_insert_get;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "update missing" `Quick test_update_missing_row;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "multi-statement txn" `Quick test_multi_statement_txn;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "update rollback" `Quick test_abort_rolls_back_update;
          Alcotest.test_case "insert rollback" `Quick test_abort_rolls_back_insert;
          Alcotest.test_case "delete rollback" `Quick test_abort_rolls_back_delete;
          Alcotest.test_case "key update rollback" `Quick test_rollback_drops_new_key_entry;
        ] );
      ( "unique",
        [
          Alcotest.test_case "violation aborts" `Quick test_unique_violation_aborts;
          Alcotest.test_case "re-insert after delete" `Quick test_unique_after_delete_ok;
        ] );
      ( "index+scan",
        [
          Alcotest.test_case "lookup" `Quick test_index_lookup;
          Alcotest.test_case "prefix scan" `Quick test_index_prefix_scan;
          Alcotest.test_case "scan visibility" `Quick test_scan_visibility;
        ] );
      ( "projection",
        [
          Alcotest.test_case "cells outside the projection are Null" `Quick
            test_projection_nulls_other_cells;
          Alcotest.test_case "older snapshot reads projected before-images" `Quick
            test_projection_at_older_snapshot;
          Alcotest.test_case "stale index entry filtered" `Quick test_projection_filters_stale_entry;
        ] );
      ( "update",
        [
          Alcotest.test_case "closure sees only its reads" `Quick test_update_projects_closure_row;
          Alcotest.test_case "rollback restores the before-image" `Quick
            test_update_rollback_restores_before_image;
          Alcotest.test_case "key column write adds the entry" `Quick test_update_key_column_adds_entry;
          Alcotest.test_case "col resolves names" `Quick test_col_resolves_names;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "uncommitted invisible" `Quick test_uncommitted_writes_invisible;
          Alcotest.test_case "read committed refresh" `Quick test_read_committed_sees_new_commits;
          Alcotest.test_case "repeatable read stable" `Quick test_repeatable_read_stable;
        ] );
      ( "conflicts",
        [
          Alcotest.test_case "concurrent increments" `Quick test_concurrent_increments_serialize;
          Alcotest.test_case "rr first-committer-wins" `Quick test_rr_first_committer_wins;
          Alcotest.test_case "deadlock resolved" `Quick test_deadlock_detected_and_resolved;
          Alcotest.test_case "transfers conserve money" `Quick test_transfers_conserve_money;
        ] );
      ( "table-locks",
        [
          Alcotest.test_case "exclusive blocks dml" `Quick test_table_lock_blocks_dml;
          Alcotest.test_case "shared dml compatible" `Quick test_table_lock_shared_dml_compatible;
        ] );
      ( "deadlines+admission",
        [
          Alcotest.test_case "deadline aborts stalled wait" `Quick
            test_txn_deadline_aborts_stalled_wait;
          Alcotest.test_case "no deadline, no timeouts" `Quick test_no_deadline_means_no_timeouts;
          Alcotest.test_case "admission sheds over cap" `Quick test_admission_sheds_over_cap;
        ] );
      ( "gc",
        [
          Alcotest.test_case "undo reclaimed" `Quick test_gc_reclaims_undo;
          Alcotest.test_case "deleted tuples purged" `Quick test_gc_removes_deleted_tuples_from_index;
          Alcotest.test_case "non-key update is free" `Quick test_gc_non_key_update_is_free;
          Alcotest.test_case "old key entry dropped" `Quick test_gc_drops_old_key_entry;
        ] );
      ( "write path",
        [
          Alcotest.test_case "uncontended write probes the tree once" `Quick
            test_uncontended_write_probes_once;
          Alcotest.test_case "write after its leaf reloaded" `Quick test_write_after_leaf_reloaded;
          Alcotest.test_case "rolled-back insert leaves no index entry" `Quick
            test_rollback_insert_unindexes;
        ] );
      ( "steal guard",
        [
          Alcotest.test_case "unsafe holds exactly when strip copies" `Quick
            test_steal_guard_parts_agree;
          Alcotest.test_case "stolen write-back strips and stays dirty" `Quick
            test_stolen_write_back_strips;
        ] );
      ("freeze", [ Alcotest.test_case "freeze and read" `Quick test_freeze_and_read_back ]);
      ( "recovery",
        [
          Alcotest.test_case "end to end" `Quick test_recovery_end_to_end;
          Alcotest.test_case "after concurrent run" `Quick test_recovery_after_concurrent_run;
          Alcotest.test_case "replayed insert indexed once" `Quick test_replayed_insert_indexed_once;
        ] );
    ]
