(* Tests for checkpoints: bounded-replay restore over surviving stores,
   frontier filtering, index rebuilds, frozen-tier restoration, and
   post-restore service. *)
open Phoebe_core
module Value = Phoebe_storage.Value
module Wal = Phoebe_wal.Wal
module Prng = Phoebe_util.Prng

(* A blind write of one named column through the index-based update. *)
let set_col t txn ~rid name v =
  let c = Table.col t name in
  Table.update ~reads:[||] t txn ~rid (fun _ -> [| (c, v) |])

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
         | Some (rid, _) -> ignore (set_col t1 txn ~rid "v" (Value.Int 777))
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

(* A freeze after the checkpoint drops leaves the snapshot still names:
   their durable images must outlive the drop until the next
   checkpoint's sync, or the restore cannot fault them in. *)
let test_freeze_after_checkpoint () =
  let db1 = Db.create cfg in
  let t1 = kv_ddl db1 in
  Db.with_txn db1 (fun txn ->
      for k = 1 to 600 do
        ignore (Table.insert t1 txn [| Value.Int k; Value.Int k |])
      done);
  let snapshot = Checkpoint.take db1 in
  for _ = 1 to 8 do
    Phoebe_btree.Table_tree.decay_access_counts (Table.tree t1)
  done;
  check_bool "froze leaves the snapshot names" true (Db.freeze_tables db1 > 100);
  Db.checkpoint db1;
  ignore (Db.crash db1);
  let db2, _ = Checkpoint.restore ~from:db1 ~snapshot cfg in
  check_int "every row restored" 600 (List.length (dump db2 (Db.table db2 "kv")))

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
          (Table.update t1 txn ~rid (fun row ->
               match row.(1) with Value.Int v -> [| (1, Value.Int (v + 1)) |] | _ -> [||])))
  done;
  Db.run db1;
  let snapshot = Checkpoint.take db1 in
  (* more concurrent traffic after the checkpoint *)
  for _ = 1 to 60 do
    let rid = 1 + Prng.int rng 50 in
    Db.submit db1 (fun txn -> ignore (set_col t1 txn ~rid "v" (Value.Int 9999)))
  done;
  Db.run db1;
  Db.checkpoint db1;
  let db2, _ = Checkpoint.restore ~from:db1 ~snapshot cfg in
  Alcotest.(check (list (pair int int))) "image + suffix = primary state" (dump db1 t1)
    (dump db2 (Db.table db2 "kv"))

(* Outside a fiber a commit only submits its WAL flush; the flush reaches
   media when the engine next runs. [Db.checkpoint] is that point: after
   it, a crash keeps every commit. *)
let test_fiberless_commits_durable_at_checkpoint () =
  let db1 = Db.create cfg in
  let t1 = kv_ddl db1 in
  let snapshot = Checkpoint.take db1 in
  for k = 1 to 200 do
    Db.with_txn db1 (fun txn -> ignore (Table.insert t1 txn [| Value.Int k; Value.Int k |]))
  done;
  Db.checkpoint db1;
  ignore (Db.crash db1);
  let db2, _ = Checkpoint.restore ~from:db1 ~snapshot cfg in
  Alcotest.(check (list (pair int int)))
    "all 200 rows survive the crash" (List.init 200 (fun i -> (i + 1, i + 1)))
    (dump db2 (Db.table db2 "kv"))

(* A restart is a fresh build over the surviving stores: a PG-style
   instance must keep its lock-table and proc-array contention after a
   checkpoint restore, not fall back to decentralized locking. *)
let test_restore_keeps_lock_style () =
  let cfg = { (Phoebe_baseline.Baseline.pg_like ~workers:2 ()) with Config.spans = true } in
  let update_lock_wait db =
    let t = Db.table db "kv" in
    Db.submit db (fun txn -> ignore (set_col t txn ~rid:1 "v" (Value.Int 7)));
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

(* ------------------------------------------------------------------ *)
(* Restart state: WAL writer sequences and page ids *)

module Record = Phoebe_wal.Record
module Walstore = Phoebe_io.Walstore
module Pagestore = Phoebe_io.Pagestore
module Bufmgr = Phoebe_storage.Bufmgr
module Table_tree = Phoebe_btree.Table_tree

(* A loaded kv table, a checkpoint, then [txns] concurrent transactions
   after it, each one update and [inserts] inserts, left running for
   [ns] virtual ns ([None]: to the end). *)
let kv_after_checkpoint ?(inserts = 1) ~rows ~txns ~ns () =
  let db = Db.create cfg in
  let t = kv_ddl db in
  Db.with_txn db (fun txn ->
      for k = 1 to rows do
        ignore (Table.insert t txn [| Value.Int k; Value.Int 0 |])
      done);
  let snapshot = Checkpoint.take db in
  for i = 1 to txns do
    Db.submit db (fun txn ->
        ignore (set_col t txn ~rid:(1 + (i * 7 mod rows)) "v" (Value.Int i));
        for j = 0 to inserts - 1 do
          ignore (Table.insert t txn [| Value.Int (rows + (i * inserts) + j); Value.Int i |])
        done)
  done;
  (match ns with Some ns -> Db.run_for db ~ns | None -> Db.run db);
  (db, snapshot)

(* Every restored writer continues its file where a full decode of the
   file ends (the next LSN follows the file's last one), and every
   writer's flushed GSN is the whole log's largest, whether its own file
   holds records or not. *)
let check_writers_match_files db2 =
  let wal = Db.wal db2 in
  let store = Wal.store wal in
  let records file = fst (Record.decode_all (Walstore.contents store ~file)) in
  let log_gsn =
    List.fold_left
      (fun acc file -> List.fold_left (fun acc (r : Record.t) -> max acc r.Record.gsn) acc (records file))
      0 (Walstore.files store)
  in
  List.iter
    (fun file ->
      match records file with
      | [] -> ()
      | records ->
        let last = List.fold_left (fun acc (r : Record.t) -> max acc r.Record.lsn) (-1) records in
        check_int (Printf.sprintf "file %d: last LSN" file) last (Wal.flushed_lsn wal ~slot:file))
    (Walstore.files store);
  for slot = 0 to (cfg.Config.n_workers * cfg.Config.slots_per_worker) - 1 do
    check_int (Printf.sprintf "slot %d: the log's largest GSN" slot) log_gsn (Wal.flushed_gsn wal ~slot)
  done

let test_restore_resumes_wal_writers () =
  let db1, snapshot = kv_after_checkpoint ~rows:200 ~txns:60 ~ns:None () in
  ignore (Db.crash db1);
  let db2, _ = Checkpoint.restore ~from:db1 ~snapshot cfg in
  check_writers_match_files db2;
  (* a new record takes the next LSN: each file stays one unbroken
     sequence *)
  let t2 = Db.table db2 "kv" in
  ignore (Db.with_txn db2 (fun txn -> Table.insert t2 txn [| Value.Int 9_999; Value.Int 1 |]));
  ignore (Db.with_txn db2 (fun txn -> set_col t2 txn ~rid:3 "v" (Value.Int 5)));
  let store = Wal.store (Db.wal db2) in
  List.iter
    (fun file ->
      let records = fst (Record.decode_all (Walstore.contents store ~file)) in
      let lsns = List.map (fun (r : Record.t) -> r.Record.lsn) records in
      List.iteri (fun i lsn -> check_int (Printf.sprintf "file %d: LSN %d" file i) i lsn) lsns)
    (Walstore.files store)

(* A crash in the middle of a flush, with the in-flight write torn at a
   sector boundary: the writers resume from the decodable prefix. Each
   transaction's commit flush spans several sectors, so a tear can land
   inside a record. *)
let test_restore_resumes_after_torn_tail () =
  let rec attempt seed =
    if seed > 40 then Alcotest.fail "no crash point left a torn WAL tail"
    else begin
      let db1, snapshot =
        kv_after_checkpoint ~inserts:30 ~rows:200 ~txns:40 ~ns:(Some (100_000 + (seed * 37_000))) ()
      in
      ignore (Db.crash ~tear:(Prng.create ~seed) db1);
      let db2, report = Checkpoint.restore ~from:db1 ~snapshot cfg in
      if report.Phoebe_wal.Recovery.torn_tails = 0 then attempt (seed + 1) else check_writers_match_files db2
    end
  in
  attempt 1

let count_rows db = List.length (dump db (Db.table db "kv"))

(* [commits] concurrent single-insert transactions, run by [run] until
   each one's commit is durable and acknowledged. *)
let insert_acked db ~run ~commits ~from =
  let t = Db.table db "kv" in
  let acked = ref 0 in
  for k = from to from + commits - 1 do
    Db.submit db
      ~on_done:(fun () -> incr acked)
      (fun txn -> ignore (Table.insert t txn [| Value.Int k; Value.Int k |]))
  done;
  run ();
  check_int "every commit acknowledged" commits !acked

(* Run [check seed] on every crash point among seeds 1-40 whose first
   restart met a torn WAL tail ([torn seed] crashes, restores and returns
   the restored state, or [None] if no tail was torn), not just the
   first one: which transactions a tear cuts short differs from seed to
   seed. At least one crash point must be torn. *)
let every_torn_crash_point ~torn ~check =
  let points = ref 0 in
  for seed = 1 to 40 do
    match torn seed with
    | Some restored ->
      incr points;
      check seed restored
    | None -> ()
  done;
  check_bool "some crash point left a torn WAL tail" true (!points > 0)

(* Two restarts in a row, the first over a torn tail: the first restart
   must cut the torn bytes, or the commits acknowledged after it are
   appended behind them, and the second restart's replay stops at the
   tear and never reaches them. It must also cut the data records of the
   transactions the crash left uncommitted, or the next commit in their
   slot adopts them at the second replay. *)
let test_second_restart_after_torn_tail () =
  every_torn_crash_point
    ~torn:(fun seed ->
      let db1, snapshot =
        kv_after_checkpoint ~inserts:30 ~rows:200 ~txns:40 ~ns:(Some (100_000 + (seed * 37_000))) ()
      in
      ignore (Db.crash ~tear:(Prng.create ~seed) db1);
      let db2, report = Checkpoint.restore ~from:db1 ~snapshot cfg in
      if report.Phoebe_wal.Recovery.torn_tails = 0 then None else Some (db2, snapshot))
    ~check:(fun seed (db2, snapshot) ->
      let label what = Printf.sprintf "seed %d: %s" seed what in
      let survived = count_rows db2 in
      insert_acked db2 ~run:(fun () -> Db.run db2) ~commits:200 ~from:100_000;
      check_int (label "rows after the acknowledged commits") (survived + 200) (count_rows db2);
      ignore (Db.crash db2);
      let db3, report = Checkpoint.restore ~from:db2 ~snapshot cfg in
      check_int (label "no torn tail left to stop the second replay") 0
        report.Phoebe_wal.Recovery.torn_tails;
      check_int
        (label "every acknowledged commit survives the second restart, and nothing else")
        (survived + 200) (count_rows db3);
      check_writers_match_files db3)

(* The same two restarts through a cluster's whole-cluster recovery,
   which replays each shard's own log from the start. *)
let test_cluster_second_restart_after_torn_tail () =
  let module Cluster = Phoebe_shard.Cluster in
  let ddl _ db = ignore (kv_ddl db) in
  let shard_rows cl = count_rows (Cluster.shard cl 0) in
  every_torn_crash_point
    ~torn:(fun seed ->
      let cl = Cluster.create (Phoebe_sim.Engine.create ()) ~shards:2 cfg in
      Array.iteri (fun k _ -> ddl k (Cluster.shard cl k)) [| (); () |];
      let db = Cluster.shard cl 0 in
      let t = Db.table db "kv" in
      for i = 1 to 40 do
        Db.submit db (fun txn ->
            for j = 0 to 29 do
              ignore (Table.insert t txn [| Value.Int ((i * 30) + j); Value.Int i |])
            done)
      done;
      Cluster.run_for cl ~ns:(100_000 + (seed * 37_000));
      ignore (Cluster.crash ~tear:(Prng.create ~seed) cl);
      let cl', report = Cluster.recover cl ~ddl in
      if report.Cluster.shard_reports.(0).Phoebe_wal.Recovery.torn_tails = 0 then None else Some cl')
    ~check:(fun seed cl ->
      let label what = Printf.sprintf "seed %d: %s" seed what in
      let survived = shard_rows cl in
      insert_acked (Cluster.shard cl 0) ~run:(fun () -> Cluster.run cl) ~commits:200 ~from:100_000;
      check_int (label "rows after the acknowledged commits") (survived + 200) (shard_rows cl);
      ignore (Cluster.crash cl);
      let cl', report = Cluster.recover cl ~ddl in
      check_int (label "no torn tail left to stop the second replay") 0
        report.Cluster.shard_reports.(0).Phoebe_wal.Recovery.torn_tails;
      check_int
        (label "every acknowledged commit survives the second recovery, and nothing else")
        (survived + 200) (shard_rows cl'))

(* A pool over a surviving store must not hand out an id the restored
   tree's cold swips (its manifest leaves) or any stored image use. *)
let test_restore_allocates_fresh_page_ids () =
  let db1, snapshot = kv_after_checkpoint ~rows:3_000 ~txns:20 ~ns:None () in
  ignore (Db.crash db1);
  let db2, _ = Checkpoint.restore ~from:db1 ~snapshot cfg in
  let t2 = Db.table db2 "kv" in
  let buf = Db.buffer db2 in
  let leaves = (Table_tree.manifest (Table.tree t2)).Table_tree.leaves in
  check_bool "the restored tree spans several leaves" true (List.length leaves > 4);
  let frame = Bufmgr.alloc buf ~partition:0 (Phoebe_storage.Pax.create (Table.schema t2) ~capacity:4) in
  let id = Bufmgr.page_id frame in
  check_bool "no stored image has the fresh id" false (Pagestore.mem (Bufmgr.store buf) ~page_id:id);
  check_bool "no manifest leaf has the fresh id" false (List.exists (fun (pid, _) -> pid = id) leaves)

(* A commit acknowledged after one restart must survive a second: the
   slot whose file was empty at the first restart resumes its GSN past
   the whole log, or replay's GSN order puts its later write below the
   other slot's earlier one. *)
let test_commit_survives_two_restarts () =
  let cfg = { cfg with Config.n_workers = 2; slots_per_worker = 1 } in
  let set db ~worker ~rid v =
    let t = Db.table db "kv" in
    Db.submit db ~affinity:worker (fun txn -> ignore (set_col t txn ~rid "v" (Value.Int v)));
    Db.run db
  in
  let db1 = Db.create cfg in
  let t1 = kv_ddl db1 in
  Db.with_txn db1 (fun txn ->
      for k = 1 to 2 do
        ignore (Table.insert t1 txn [| Value.Int k; Value.Int 0 |])
      done);
  let snapshot = Checkpoint.take db1 in
  for i = 1 to 300 do
    set db1 ~worker:0 ~rid:2 i
  done;
  set db1 ~worker:0 ~rid:1 111;
  ignore (Db.crash db1);
  let db2, _ = Checkpoint.restore ~from:db1 ~snapshot cfg in
  set db2 ~worker:1 ~rid:1 222;
  ignore (Db.crash db2);
  let db3, _ = Checkpoint.restore ~from:db2 ~snapshot cfg in
  check_int "the last acknowledged write of rid 1" 222 (List.assoc 1 (dump db3 (Db.table db3 "kv")))

module Tpcc = Phoebe_tpcc.Tpcc

let tpcc_tables =
  [ "warehouse"; "district"; "customer"; "history"; "neworder"; "orders"; "orderline"; "item"; "stock" ]

(* A table's row count, an order-independent hash of its (rid, row)
   pairs, and how many of its rids occur more than once. *)
let table_digest db name =
  Db.with_txn db (fun txn ->
      let seen = Hashtbl.create 4096 and n = ref 0 and h = ref 0 and dups = ref 0 in
      Table.scan (Db.table db name) txn (fun rid row ->
          if Hashtbl.mem seen rid then incr dups else Hashtbl.add seen rid ();
          incr n;
          h := !h + Hashtbl.hash_param 64 256 (rid, row));
      (!n, !h, !dups))

(* TPC-C over a pool far below the working set, restarted from the
   checkpoint taken right after the load: the cleaner and eviction have
   written back leaves (rightmost ones included) past the checkpoint, and
   the restored tables must still equal the live ones row for row. *)
let test_tpcc_restore_spilling_pool () =
  let cfg = { Config.default with Config.n_workers = 1; buffer_bytes = 1024 * 1024 } in
  let db1 = Db.create cfg in
  let t = Tpcc.load db1 ~warehouses:1 ~scale:Tpcc.default_scale ~seed:42 () in
  let snapshot = Checkpoint.take db1 in
  ignore (Tpcc.run_mix t ~concurrency:32 ~duration_ns:500_000_000 ~seed:42 ());
  Db.run db1;
  check_bool "the pool spilled" true ((Db.cleaner_stats db1).Bufmgr.clean_evicts > 0);
  let live = List.map (table_digest db1) tpcc_tables in
  ignore (Db.crash db1);
  let db2, _ = Checkpoint.restore ~from:db1 ~snapshot cfg in
  List.iter2
    (fun name (n, h, _) ->
      let n', h', dups = table_digest db2 name in
      check_int (name ^ ": row count") n n';
      check_int (name ^ ": content hash") h h';
      check_int (name ^ ": duplicate rids") 0 dups)
    tpcc_tables live

let () =
  Alcotest.run "phoebe_checkpoint"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip with suffix" `Quick test_checkpoint_restore_roundtrip;
          Alcotest.test_case "bounds replay" `Quick test_checkpoint_bounds_replay;
          Alcotest.test_case "frozen tier" `Quick test_checkpoint_with_frozen_tier;
          Alcotest.test_case "freeze after the checkpoint" `Quick test_freeze_after_checkpoint;
          Alcotest.test_case "rejects active txns" `Quick test_checkpoint_rejects_active_txns;
          Alcotest.test_case "after concurrent run" `Quick test_checkpoint_after_concurrent_run;
          Alcotest.test_case "fiber-less commits durable at checkpoint" `Quick
            test_fiberless_commits_durable_at_checkpoint;
          Alcotest.test_case "restore keeps lock style" `Quick test_restore_keeps_lock_style;
          Alcotest.test_case "restore resumes WAL writers" `Quick test_restore_resumes_wal_writers;
          Alcotest.test_case "restore resumes after a torn tail" `Quick test_restore_resumes_after_torn_tail;
          Alcotest.test_case "restore allocates fresh page ids" `Quick test_restore_allocates_fresh_page_ids;
          Alcotest.test_case "second restart after a torn tail" `Quick test_second_restart_after_torn_tail;
          Alcotest.test_case "cluster second recovery after a torn tail" `Quick
            test_cluster_second_restart_after_torn_tail;
          Alcotest.test_case "commit survives two restarts" `Quick test_commit_survives_two_restarts;
          Alcotest.test_case "TPC-C restore over a 1 MB pool" `Quick test_tpcc_restore_spilling_pool;
        ] );
    ]
