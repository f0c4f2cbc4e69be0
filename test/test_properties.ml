(* System-level property tests: isolation invariants under randomized
   concurrent histories, crash-recovery prefix consistency under random
   crash points, GC transparency, and freeze/MVCC interaction. *)
open Phoebe_core
module Value = Phoebe_storage.Value
module Txnmgr = Phoebe_txn.Txnmgr
module Scheduler = Phoebe_runtime.Scheduler
module Prng = Phoebe_util.Prng
module Wal = Phoebe_wal.Wal

(* A blind write of one named column through the index-based update. *)
let set_col t txn ~rid name v =
  let c = Table.col t name in
  Table.update ~reads:[||] t txn ~rid (fun _ -> [| (c, v) |])

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = { Config.default with Config.n_workers = 3; slots_per_worker = 4 }

let kv_db () =
  let db = Db.create cfg in
  let t = Db.create_table db ~name:"kv" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
  Db.create_index db t ~name:"kv_pk" ~cols:[ "k" ] ~unique:true;
  (db, t)

let int_of = function Value.Int v -> v | _ -> Alcotest.fail "int expected"

(* ------------------------------------------------------------------ *)
(* No dirty reads: aborted writers always write the poison value; no
   reader, at any interleaving, may ever observe it. *)

let test_no_dirty_reads () =
  let db, t = kv_db () in
  let rids = Array.init 5 (fun k -> Db.with_txn db (fun txn -> Table.insert t txn [| Value.Int k; Value.Int 0 |])) in
  let rng = Prng.create ~seed:31 in
  let poison = 666 in
  let dirty_reads = ref 0 in
  for i = 1 to 300 do
    if Prng.bool rng then
      (* writer: 50% commit a clean value, 50% write poison then abort *)
      let rid = rids.(Prng.int rng 5) in
      let aborts = Prng.bool rng in
      Scheduler.submit (Db.scheduler db) (fun () ->
          try
            Db.with_txn db (fun txn ->
                ignore
                  (set_col t txn ~rid "v" (Value.Int (if aborts then poison else i)));
                Scheduler.charge Phoebe_sim.Component.Effective 30_000;
                if aborts then failwith "writer crashes")
          with Failure _ -> ())
    else
      let rid = rids.(Prng.int rng 5) in
      Scheduler.submit (Db.scheduler db) (fun () ->
          Db.with_txn db (fun txn ->
              match Table.get t txn ~rid with
              | Some row -> if int_of row.(1) = poison then incr dirty_reads
              | None -> ()))
  done;
  Db.run db;
  check_int "no reader ever saw an uncommitted (poisoned) value" 0 !dirty_reads;
  (* and after everything settles, no poison remains in the table *)
  Db.with_txn db (fun txn ->
      Table.scan t txn (fun _ row ->
          if int_of row.(1) = poison then Alcotest.fail "poison persisted after rollback"))

(* ------------------------------------------------------------------ *)
(* Repeatable read: two reads inside one RR transaction always agree,
   regardless of concurrent committed writers. *)

let test_repeatable_read_property () =
  let db, t = kv_db () in
  let rid = Db.with_txn db (fun txn -> Table.insert t txn [| Value.Int 0; Value.Int 0 |]) in
  let rng = Prng.create ~seed:33 in
  let violations = ref 0 in
  for i = 1 to 150 do
    (* writer traffic *)
    Db.submit db (fun txn -> ignore (set_col t txn ~rid "v" (Value.Int i)));
    (* RR reader with a pause between two reads *)
    Scheduler.submit (Db.scheduler db) (fun () ->
        let txn =
          Txnmgr.begin_txn (Db.txnmgr db) ~isolation:Txnmgr.Repeatable_read
            ~slot:(Scheduler.current_slot ())
        in
        let r1 = Table.get t txn ~rid in
        Scheduler.charge Phoebe_sim.Component.Effective (30_000 + Prng.int rng 50_000);
        Scheduler.yield Scheduler.Low;
        let r2 = Table.get t txn ~rid in
        if r1 <> r2 then incr violations;
        Txnmgr.commit (Db.txnmgr db) txn)
  done;
  Db.run db;
  check_int "repeatable reads never changed mid-transaction" 0 !violations

(* ------------------------------------------------------------------ *)
(* Crash-recovery prefix consistency at random crash points: every
   transaction whose commit completed before the crash must be present
   after replay; no aborted transaction may be. *)

let crash_recovery_trial seed =
  let db1, t1 = kv_db () in
  let committed = Hashtbl.create 64 in
  let rng = Prng.create ~seed in
  for i = 1 to 120 do
    let aborts = Prng.int rng 10 = 0 in
    Db.submit db1
      ~on_done:(fun () -> if not aborts then Hashtbl.replace committed i ())
      (fun txn ->
        ignore (Table.insert t1 txn [| Value.Int (1000 + i); Value.Int i |]);
        if aborts then raise (Txnmgr.Abort (Txnmgr.Conflict, "injected")))
  done;
  (* crash at a random virtual time: some transactions never ran *)
  Db.run_for db1 ~ns:(200_000 + Prng.int rng 3_000_000);
  (* whatever reached the WAL store survives; in-writer buffers are lost *)
  let db2, t2 = kv_db () in
  ignore (Db.replay_wal db2 ~from:(Wal.store (Db.wal db1)));
  let recovered = Hashtbl.create 64 in
  Db.with_txn db2 (fun txn ->
      Table.scan t2 txn (fun _ row -> Hashtbl.replace recovered (int_of row.(1)) ()));
  (* durably committed  =>  recovered *)
  Hashtbl.iter
    (fun i () ->
      if not (Hashtbl.mem recovered i) then
        Alcotest.failf "seed %d: committed txn %d lost by recovery" seed i)
    committed;
  (* recovered  =>  it was at least submitted and not an injected abort *)
  Hashtbl.iter
    (fun i () ->
      if i mod 1 = 0 && i >= 1 && i <= 120 then () else Alcotest.failf "bogus recovered value %d" i)
    recovered

let test_crash_recovery_random_points () =
  List.iter crash_recovery_trial [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* Aborted transactions must never be recovered, even when the crash
   happens right after the abort. *)
let test_aborted_never_recovered () =
  let db1, t1 = kv_db () in
  (try
     Db.with_txn db1 (fun txn ->
         ignore (Table.insert t1 txn [| Value.Int 1; Value.Int 999 |]);
         failwith "boom")
   with Failure _ -> ());
  ignore (Db.with_txn db1 (fun txn -> Table.insert t1 txn [| Value.Int 2; Value.Int 1 |]));
  Db.checkpoint db1;
  let db2, t2 = kv_db () in
  ignore (Db.replay_wal db2 ~from:(Wal.store (Db.wal db1)));
  Db.with_txn db2 (fun txn ->
      Table.scan t2 txn (fun _ row ->
          if int_of row.(1) = 999 then Alcotest.fail "aborted insert recovered"))

(* ------------------------------------------------------------------ *)
(* GC transparency: under sequential random ops, running GC at arbitrary
   points never changes what a fresh reader sees (model = Hashtbl). *)

let test_gc_transparency () =
  let db, t = kv_db () in
  let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rid_of_k = Hashtbl.create 64 in
  let rng = Prng.create ~seed:77 in
  for step = 1 to 600 do
    (match Prng.int rng 4 with
    | 0 ->
      let k = Prng.int rng 40 in
      if not (Hashtbl.mem model k) then begin
        let rid = Db.with_txn db (fun txn -> Table.insert t txn [| Value.Int k; Value.Int step |]) in
        Hashtbl.replace model k step;
        Hashtbl.replace rid_of_k k rid
      end
    | 1 -> (
      let k = Prng.int rng 40 in
      match Hashtbl.find_opt rid_of_k k with
      | Some rid when Hashtbl.mem model k ->
        ignore (Db.with_txn db (fun txn -> set_col t txn ~rid "v" (Value.Int step)));
        Hashtbl.replace model k step
      | _ -> ())
    | 2 -> (
      let k = Prng.int rng 40 in
      match Hashtbl.find_opt rid_of_k k with
      | Some rid when Hashtbl.mem model k ->
        ignore (Db.with_txn db (fun txn -> Table.delete t txn ~rid));
        Hashtbl.remove model k
      | _ -> ())
    | _ -> ());
    if step mod 50 = 0 then ignore (Db.gc db);
    if step mod 100 = 0 then begin
      (* full comparison against the model *)
      let seen = Hashtbl.create 64 in
      Db.with_txn db (fun txn ->
          Table.scan t txn (fun _ row -> Hashtbl.replace seen (int_of row.(0)) (int_of row.(1))));
      Hashtbl.iter
        (fun k v ->
          match Hashtbl.find_opt seen k with
          | Some v' when v = v' -> ()
          | Some v' -> Alcotest.failf "step %d: key %d is %d, model says %d" step k v' v
          | None -> Alcotest.failf "step %d: key %d missing" step k)
        model;
      check_int "no extra rows" (Hashtbl.length model) (Hashtbl.length seen)
    end
  done

(* ------------------------------------------------------------------ *)
(* Freeze transparency: freezing at arbitrary points during a (single-
   threaded) update/delete workload never changes reader-visible state. *)

let test_freeze_transparency () =
  let db = Db.create cfg in
  let t = Db.create_table db ~name:"log" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
  let model = Hashtbl.create 256 in
  let rng = Prng.create ~seed:55 in
  let rids = ref [] in
  Db.with_txn db (fun txn ->
      for k = 1 to 500 do
        let rid = Table.insert t txn [| Value.Int k; Value.Int 0 |] in
        Hashtbl.replace model rid 0;
        rids := rid :: !rids
      done);
  let rids = Array.of_list !rids in
  for step = 1 to 200 do
    let rid = rids.(Prng.int rng (Array.length rids)) in
    (match Prng.int rng 3 with
    | 0 ->
      if Hashtbl.mem model rid then begin
        (* an update of a frozen row moves it to a fresh rid and
           delete-marks this one, which the model tracks as a delete *)
        let frozen = rid <= Phoebe_btree.Table_tree.max_frozen_row_id (Table.tree t) in
        ignore (Db.with_txn db (fun txn -> set_col t txn ~rid "v" (Value.Int step)));
        if frozen then Hashtbl.remove model rid else Hashtbl.replace model rid step
      end
    | 1 ->
      if Hashtbl.mem model rid then begin
        ignore (Db.with_txn db (fun txn -> Table.delete t txn ~rid));
        Hashtbl.remove model rid
      end
    | _ -> ());
    if step mod 40 = 0 then begin
      Phoebe_btree.Table_tree.decay_access_counts (Table.tree t);
      Phoebe_btree.Table_tree.decay_access_counts (Table.tree t);
      Phoebe_btree.Table_tree.decay_access_counts (Table.tree t);
      ignore (Db.freeze_tables db)
    end;
    (* spot-check through the frozen/hot boundary *)
    let probe = rids.(Prng.int rng (Array.length rids)) in
    Db.with_txn db (fun txn ->
        match (Table.get t txn ~rid:probe, Hashtbl.find_opt model probe) with
        | Some row, Some v ->
          if int_of row.(1) <> v then
            Alcotest.failf "step %d: rid %d reads %d, model %d" step probe (int_of row.(1)) v
        | None, None -> ()
        | Some _, None -> Alcotest.failf "step %d: rid %d visible but deleted in model" step probe
        | None, Some _ -> Alcotest.failf "step %d: rid %d missing" step probe)
  done;
  check_bool "something was frozen during the run" true
    (Phoebe_btree.Table_tree.frozen_block_count (Table.tree t) > 0)

(* Updates of frozen rows move them to fresh rids; the *content* must
   survive the move and old readers must be unaffected. The model above
   tracks rids, so here we track by key instead. *)
let test_frozen_update_moves_row () =
  let db = Db.create cfg in
  let t = Db.create_table db ~name:"log" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
  Db.create_index db t ~name:"log_pk" ~cols:[ "k" ] ~unique:true;
  Db.with_txn db (fun txn ->
      for k = 1 to 600 do
        ignore (Table.insert t txn [| Value.Int k; Value.Int k |])
      done);
  for _ = 1 to 8 do
    Phoebe_btree.Table_tree.decay_access_counts (Table.tree t)
  done;
  let frozen = Db.freeze_tables db in
  check_bool "prefix frozen" true (frozen > 100);
  (* update a frozen row through its index *)
  Db.with_txn db (fun txn ->
      match Table.index_lookup_first t txn ~index:"log_pk" ~key:[ Value.Int 5 ] with
      | Some (rid, _) -> ignore (set_col t txn ~rid "v" (Value.Int 5555))
      | None -> Alcotest.fail "frozen row not found via index");
  Db.with_txn db (fun txn ->
      match Table.index_lookup_first t txn ~index:"log_pk" ~key:[ Value.Int 5 ] with
      | Some (rid, row) ->
        check_int "updated value visible via index" 5555 (int_of row.(1));
        check_bool "row moved to a fresh hot rid" true
          (rid > Phoebe_btree.Table_tree.max_frozen_row_id (Table.tree t))
      | None -> Alcotest.fail "moved row lost from index")

let test_concurrent_index_split_storm () =
  (* regression for the stale-idx split race: thousands of concurrent
     inserts drive deep index-node splits while fibers interleave at
     latch spins; every row must remain reachable through the index *)
  let db = Db.create { Config.default with Config.n_workers = 4; slots_per_worker = 8 } in
  let t = Db.create_table db ~name:"storm" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
  Db.create_index db t ~name:"storm_pk" ~cols:[ "k" ] ~unique:true;
  let n = 3000 in
  for k = 1 to n do
    Db.submit db (fun txn -> ignore (Table.insert t txn [| Value.Int k; Value.Int (k * 7) |]))
  done;
  Db.run db;
  let missing = ref 0 in
  Db.with_txn db (fun txn ->
      for k = 1 to n do
        match Table.index_lookup_first t txn ~index:"storm_pk" ~key:[ Value.Int k ] with
        | Some (_, row) -> if row.(1) <> Value.Int (k * 7) then incr missing
        | None -> incr missing
      done);
  check_int "every insert reachable via the index" 0 !missing;
  Db.with_txn db (fun txn ->
      let c = ref 0 in
      Table.scan t txn (fun _ _ -> incr c);
      check_int "scan agrees" n !c)

let test_warm_hot_frozen () =
  let db = Db.create cfg in
  let t = Db.create_table db ~name:"log" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
  Db.create_index db t ~name:"log_pk" ~cols:[ "k" ] ~unique:true;
  Db.with_txn db (fun txn ->
      for k = 1 to 400 do
        ignore (Table.insert t txn [| Value.Int k; Value.Int k |])
      done);
  for _ = 1 to 8 do
    Phoebe_btree.Table_tree.decay_access_counts (Table.tree t)
  done;
  ignore (Db.freeze_tables db);
  let tree = Table.tree t in
  check_bool "frozen" true (Phoebe_btree.Table_tree.frozen_block_count tree > 0);
  (* hammer a frozen block with point reads *)
  for _ = 1 to 50 do
    ignore (Db.with_txn db (fun txn -> Table.get t txn ~rid:3))
  done;
  check_bool "reads counted" true (Table.frozen_reads t >= 50);
  let warmed = Db.with_txn db (fun txn -> Table.warm_hot_frozen t txn ~read_threshold:20) in
  check_bool "hot block warmed" true (warmed > 0);
  (* content survives, reachable through the index at a fresh hot rid *)
  Db.with_txn db (fun txn ->
      match Table.index_lookup_first t txn ~index:"log_pk" ~key:[ Value.Int 3 ] with
      | Some (rid, row) ->
        check_int "value preserved" 3 (int_of row.(1));
        check_bool "now hot" true (rid > Phoebe_btree.Table_tree.max_frozen_row_id tree)
      | None -> Alcotest.fail "warmed row lost");
  (* scan agrees on the full key set *)
  Db.with_txn db (fun txn ->
      let n = ref 0 in
      Table.scan t txn (fun _ _ -> incr n);
      check_int "no rows lost or duplicated" 400 !n)

(* ------------------------------------------------------------------ *)
(* Cleaner transparency: the background page cleaner is a performance
   mechanism only — with a buffer small enough to force constant
   eviction, the same seeded workload must leave identical table
   contents with the cleaner on and off, both live and after a crash
   plus WAL replay. *)

let cleaner_trial ~cleaner_enabled =
  let cfg =
    {
      cfg with
      Config.buffer_bytes = 12_288;
      (* tiny leaves: 200 keys spread over ~25 pages so the pool is
         genuinely over budget and eviction/cleaning runs constantly *)
      Config.leaf_capacity = 8;
      Config.cleaner =
        {
          Phoebe_storage.Bufmgr.cl_enabled = cleaner_enabled;
          Phoebe_storage.Bufmgr.cl_batch_pages = 8;
        };
    }
  in
  let db = Db.create cfg in
  let t = Db.create_table db ~name:"kv" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
  Db.create_index db t ~name:"kv_pk" ~cols:[ "k" ] ~unique:true;
  let rng = Prng.create ~seed:91 in
  let rids = Hashtbl.create 64 in
  for k = 1 to 200 do
    let rid = Db.with_txn db (fun txn -> Table.insert t txn [| Value.Int k; Value.Int 0 |]) in
    Hashtbl.replace rids k rid
  done;
  for i = 1 to 400 do
    let k = 1 + Prng.int rng 200 in
    let rid = Hashtbl.find rids k in
    Db.submit db (fun txn -> ignore (set_col t txn ~rid "v" (Value.Int i)))
  done;
  Db.run db;
  let contents db t =
    let rows = ref [] in
    Db.with_txn db (fun txn ->
        Table.scan t txn (fun _ row -> rows := (int_of row.(0), int_of row.(1)) :: !rows));
    List.sort compare !rows
  in
  let live = contents db t in
  (* crash: whatever reached the WAL store survives; replay into a fresh db *)
  let db2 = Db.create cfg in
  let t2 = Db.create_table db2 ~name:"kv" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
  Db.create_index db2 t2 ~name:"kv_pk" ~cols:[ "k" ] ~unique:true;
  ignore (Db.replay_wal db2 ~from:(Wal.store (Db.wal db)));
  let recovered = contents db2 t2 in
  (live, recovered, Db.cleaner_stats db)

let test_cleaner_transparency () =
  let live_off, rec_off, stats_off = cleaner_trial ~cleaner_enabled:false in
  let live_on, rec_on, stats_on = cleaner_trial ~cleaner_enabled:true in
  check_bool "cleaner actually ran in the on-trial" true
    (stats_on.Phoebe_storage.Bufmgr.batches_submitted > 0);
  check_int "cleaner off-trial never batched" 0 stats_off.Phoebe_storage.Bufmgr.batches_submitted;
  check_bool "live contents identical with cleaner on/off" true (live_off = live_on);
  check_bool "post-recovery contents identical with cleaner on/off" true (rec_off = rec_on);
  check_bool "recovery lost nothing (on)" true (rec_on = live_on);
  check_bool "recovery lost nothing (off)" true (rec_off = live_off)

(* ------------------------------------------------------------------ *)
(* Randomized lock graphs: transactions update overlapping random row
   sequences, forming wait-for cycles. With no deadline configured, the
   wait-for cycle detector alone must resolve every cycle (the run
   terminating proves no deadlock was missed) and the deadline fallback
   must never fire (no spurious aborts). With a generous deadline, cycle
   detection still fires first — outcomes agree with the no-deadline
   run. With a tiny deadline, the fallback may abort stragglers, but the
   system still drains and every abort carries a structured reason. *)

let lock_graph_trial ~deadline_ns ~seed =
  let cfg =
    { Config.default with Config.n_workers = 3; slots_per_worker = 4; txn_deadline_ns = deadline_ns }
  in
  let db = Db.create cfg in
  let t = Db.create_table db ~name:"kv" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
  Db.create_index db t ~name:"kv_pk" ~cols:[ "k" ] ~unique:true;
  let n_rows = 6 in
  let rids =
    Array.init n_rows (fun k -> Db.with_txn db (fun txn -> Table.insert t txn [| Value.Int k; Value.Int 0 |]))
  in
  let rng = Prng.create ~seed in
  (* a random walk over [n] distinct rows: partial Fisher-Yates shuffle *)
  let pick_rows n =
    let idx = Array.init n_rows Fun.id in
    for i = 0 to n - 1 do
      let j = i + Prng.int rng (n_rows - i) in
      let tmp = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- tmp
    done;
    List.init n (fun i -> rids.(idx.(i)))
  in
  let committed = ref 0 and failed = ref 0 in
  for i = 1 to 200 do
    let walk = pick_rows (2 + Prng.int rng 3) in
    let think = 10_000 + Prng.int rng 30_000 in
    Scheduler.submit (Db.scheduler db) (fun () ->
        match
          Db.with_txn db (fun txn ->
              List.iter
                (fun rid ->
                  ignore (set_col t txn ~rid "v" (Value.Int i));
                  Scheduler.charge Phoebe_sim.Component.Effective think)
                walk)
        with
        | () -> incr committed
        | exception Txnmgr.Abort _ -> incr failed)
  done;
  (* termination here is itself the "no missed deadlock" check: a cycle
     neither detected nor timed out would leave live fibers and trip the
     scheduler's quiescence bug-check inside Db.run *)
  Db.run db;
  let aborted r = Txnmgr.stats_aborted_for (Db.txnmgr db) r in
  check_int (Printf.sprintf "seed %d: every submission resolved" seed) 200 (!committed + !failed);
  check_int (Printf.sprintf "seed %d: admission off, nothing shed" seed) 0 (aborted Txnmgr.Shed);
  (!committed, aborted Txnmgr.Deadlock, aborted Txnmgr.Deadline)

let test_lock_graph_deadline_agreement () =
  List.iter
    (fun seed ->
      (* (a) cycle detection alone: no deadline configured, so the
         fallback must never fire *)
      let c_none, dl_none, exp_none = lock_graph_trial ~deadline_ns:0 ~seed in
      check_int "no deadline => no deadline aborts" 0 exp_none;
      check_bool "contention actually produced deadlocks" true (dl_none > 0);
      (* (b) generous deadline: cycle detection still wins every race,
         so outcomes agree exactly with the no-deadline run *)
      let c_slow, dl_slow, exp_slow = lock_graph_trial ~deadline_ns:50_000_000 ~seed in
      check_int "generous deadline never expires" 0 exp_slow;
      check_int "same commits as the no-deadline run" c_none c_slow;
      check_int "same deadlock aborts as the no-deadline run" dl_none dl_slow;
      (* (c) tiny deadline: the fallback may abort waits first, but the
         run still drains (asserted inside the trial) *)
      ignore (lock_graph_trial ~deadline_ns:30_000 ~seed))
    [ 7; 21; 42 ]

let () =
  Alcotest.run "phoebe_properties"
    [
      ( "isolation",
        [
          Alcotest.test_case "no dirty reads" `Quick test_no_dirty_reads;
          Alcotest.test_case "repeatable read stability" `Quick test_repeatable_read_property;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "random crash points" `Quick test_crash_recovery_random_points;
          Alcotest.test_case "aborted never recovered" `Quick test_aborted_never_recovered;
        ] );
      ( "lock-graphs",
        [ Alcotest.test_case "deadline fallback vs cycle detection" `Quick test_lock_graph_deadline_agreement ] );
      ("gc", [ Alcotest.test_case "transparency vs model" `Quick test_gc_transparency ]);
      ("cleaner", [ Alcotest.test_case "transparency on/off" `Quick test_cleaner_transparency ]);
      ( "index-splits",
        [ Alcotest.test_case "concurrent split storm" `Quick test_concurrent_index_split_storm ] );
      ( "freeze",
        [
          Alcotest.test_case "transparency vs model" `Quick test_freeze_transparency;
          Alcotest.test_case "frozen update moves row" `Quick test_frozen_update_moves_row;
          Alcotest.test_case "warm hot frozen block" `Quick test_warm_hot_frozen;
        ] );
    ]
