(* Tests for checkpoints: bounded-replay restore over surviving stores,
   frontier filtering, index rebuilds, frozen-tier restoration, and
   post-restore service. *)
open Phoebe_core
module Value = Phoebe_storage.Value
module Wal = Phoebe_wal.Wal
module Prng = Phoebe_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = { Config.default with Config.n_workers = 2; slots_per_worker = 4 }

let kv_ddl db =
  let t = Db.create_table db ~name:"kv" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
  Db.create_index db t ~name:"kv_pk" ~cols:[ "k" ] ~unique:true;
  t

let dump db t =
  Db.with_txn db (fun txn ->
      let acc = ref [] in
      Table.scan t txn (fun _ row ->
          match (row.(0), row.(1)) with
          | Value.Int k, Value.Int v -> acc := (k, v) :: !acc
          | _ -> ());
      List.sort compare !acc)

let test_checkpoint_restore_roundtrip () =
  let db1 = Db.create cfg in
  let t1 = kv_ddl db1 in
  Db.with_txn db1 (fun txn ->
      for k = 1 to 300 do
        ignore (Table.insert t1 txn [| Value.Int k; Value.Int (k * 2) |])
      done);
  ignore (Db.with_txn db1 (fun txn -> Table.delete t1 txn ~rid:5));
  ignore (Db.gc db1);
  let snapshot = Checkpoint.take db1 in
  (* post-checkpoint transactions: these live only in the WAL suffix *)
  ignore (Db.with_txn db1 (fun txn -> Table.insert t1 txn [| Value.Int 1000; Value.Int 1 |]));
  ignore
    (Db.with_txn db1 (fun txn ->
         match Table.index_lookup_first t1 txn ~index:"kv_pk" ~key:[ Value.Int 7 ] with
         | Some (rid, _) -> ignore (Table.update t1 txn ~rid [ ("v", Value.Int 777) ])
         | None -> ()));
  Db.checkpoint db1;
  (* crash + restore over the surviving stores *)
  let db2, report = Checkpoint.restore ~from:db1 ~snapshot cfg in
  check_bool "only the suffix was replayed" true (report.Phoebe_wal.Recovery.ops_replayed <= 4);
  let t2 = Db.table db2 "kv" in
  Alcotest.(check (list (pair int int))) "state identical" (dump db1 t1) (dump db2 t2);
  (* the rebuilt index works *)
  Db.with_txn db2 (fun txn ->
      match Table.index_lookup_first t2 txn ~index:"kv_pk" ~key:[ Value.Int 7 ] with
      | Some (_, row) -> check_bool "suffix update present via index" true (row.(1) = Value.Int 777)
      | None -> Alcotest.fail "index lookup after restore");
  (* the restored instance serves new transactions *)
  ignore (Db.with_txn db2 (fun txn -> Table.insert t2 txn [| Value.Int 2000; Value.Int 9 |]));
  Db.with_txn db2 (fun txn ->
      match Table.index_lookup_first t2 txn ~index:"kv_pk" ~key:[ Value.Int 2000 ] with
      | Some _ -> ()
      | None -> Alcotest.fail "restored instance must accept writes")

let test_checkpoint_bounds_replay () =
  let db1 = Db.create cfg in
  let t1 = kv_ddl db1 in
  Db.with_txn db1 (fun txn ->
      for k = 1 to 500 do
        ignore (Table.insert t1 txn [| Value.Int k; Value.Int k |])
      done);
  let snapshot = Checkpoint.take db1 in
  (* the leaf manifest goes out through the vectored batch path: fewer
     device submissions than pages written *)
  let dev = Db.data_device db1 in
  let module Device = Phoebe_io.Device in
  check_bool "manifest used batched submissions" true (Device.total_batches dev Device.Write >= 1);
  check_bool "batches carry multiple pages" true
    (Device.total_ops dev Device.Write > Device.total_batches dev Device.Write);
  let db2, report = Checkpoint.restore ~from:db1 ~snapshot cfg in
  check_int "nothing to replay after a clean checkpoint" 0 report.Phoebe_wal.Recovery.ops_replayed;
  check_int "all rows present from the image alone" 500 (List.length (dump db2 (Db.table db2 "kv")))

let test_checkpoint_with_frozen_tier () =
  let db1 = Db.create cfg in
  let t1 = kv_ddl db1 in
  Db.with_txn db1 (fun txn ->
      for k = 1 to 600 do
        ignore (Table.insert t1 txn [| Value.Int k; Value.Int k |])
      done);
  for _ = 1 to 8 do
    Phoebe_btree.Table_tree.decay_access_counts (Table.tree t1)
  done;
  let frozen = Db.freeze_tables db1 in
  check_bool "frozen something" true (frozen > 100);
  let snapshot = Checkpoint.take db1 in
  let db2, _ = Checkpoint.restore ~from:db1 ~snapshot cfg in
  let t2 = Db.table db2 "kv" in
  check_bool "frozen tier restored" true
    (Phoebe_btree.Table_tree.frozen_block_count (Table.tree t2) > 0);
  Alcotest.(check (list (pair int int))) "rows identical across tiers" (dump db1 t1) (dump db2 t2)

let test_checkpoint_rejects_active_txns () =
  let db = Db.create cfg in
  ignore (kv_ddl db);
  let txn = Db.begin_txn db in
  check_bool "take refuses mid-transaction" true
    (try
       ignore (Checkpoint.take db);
       false
     with Invalid_argument _ -> true);
  Phoebe_txn.Txnmgr.commit (Db.txnmgr db) txn

let test_checkpoint_after_concurrent_run () =
  let db1 = Db.create cfg in
  let t1 = kv_ddl db1 in
  let rng = Prng.create ~seed:6 in
  Db.with_txn db1 (fun txn ->
      for k = 1 to 50 do
        ignore (Table.insert t1 txn [| Value.Int k; Value.Int 0 |])
      done);
  for _ = 1 to 150 do
    let rid = 1 + Prng.int rng 50 in
    Db.submit db1 (fun txn ->
        ignore
          (Table.update_with t1 txn ~rid (fun row ->
               match row.(1) with Value.Int v -> [ ("v", Value.Int (v + 1)) ] | _ -> [])))
  done;
  Db.run db1;
  let snapshot = Checkpoint.take db1 in
  (* more concurrent traffic after the checkpoint *)
  for _ = 1 to 60 do
    let rid = 1 + Prng.int rng 50 in
    Db.submit db1 (fun txn -> ignore (Table.update t1 txn ~rid [ ("v", Value.Int 9999) ]))
  done;
  Db.run db1;
  Db.checkpoint db1;
  let db2, _ = Checkpoint.restore ~from:db1 ~snapshot cfg in
  Alcotest.(check (list (pair int int))) "image + suffix = primary state" (dump db1 t1)
    (dump db2 (Db.table db2 "kv"))

(* A restart is a fresh build over the surviving stores: a PG-style
   instance must keep its lock-table and proc-array contention after a
   checkpoint restore, not fall back to decentralized locking. *)
let test_restore_keeps_lock_style () =
  let cfg = { (Phoebe_baseline.Baseline.pg_like ~workers:2 ()) with Config.spans = true } in
  let update_lock_wait db =
    let t = Db.table db "kv" in
    Db.submit db (fun txn -> ignore (Table.update t txn ~rid:1 [ ("v", Value.Int 7) ]));
    Db.run db;
    match Db.trace db with
    | Some tr -> Phoebe_obs.Trace.phase_ns tr ~kind:0 Phoebe_obs.Trace.Lock_wait
    | None -> Alcotest.fail "spans are on"
  in
  let db1 = Db.create cfg in
  let t1 = kv_ddl db1 in
  Db.with_txn db1 (fun txn -> ignore (Table.insert t1 txn [| Value.Int 1; Value.Int 1 |]));
  check_bool "fresh instance waits on the lock table" true (update_lock_wait db1 > 0.);
  let snapshot = Checkpoint.take db1 in
  ignore (Db.crash db1);
  let db2, _ = Checkpoint.restore ~from:db1 ~snapshot cfg in
  check_bool "restored instance waits on the lock table" true (update_lock_wait db2 > 0.)

let () =
  Alcotest.run "phoebe_checkpoint"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip with suffix" `Quick test_checkpoint_restore_roundtrip;
          Alcotest.test_case "bounds replay" `Quick test_checkpoint_bounds_replay;
          Alcotest.test_case "frozen tier" `Quick test_checkpoint_with_frozen_tier;
          Alcotest.test_case "rejects active txns" `Quick test_checkpoint_rejects_active_txns;
          Alcotest.test_case "after concurrent run" `Quick test_checkpoint_after_concurrent_run;
          Alcotest.test_case "restore keeps lock style" `Quick test_restore_keeps_lock_style;
        ] );
    ]
