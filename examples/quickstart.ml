(* Quickstart: create a database, a table with a unique index, run
   transactions (including rollback and crash recovery), and read the
   kernel statistics.

   Run with: dune exec examples/quickstart.exe *)
open Phoebe_core
module Value = Phoebe_storage.Value

let print_user db users rid =
  Db.with_txn db (fun txn ->
      match Table.get users txn ~rid with
      | Some row ->
        Printf.printf "  rid=%d  name=%s  karma=%s\n" rid
          (Value.to_string row.(0))
          (Value.to_string row.(1))
      | None -> Printf.printf "  rid=%d  <not visible>\n" rid)

let () =
  print_endline "== PhoebeDB quickstart ==";
  (* A Db bundles the simulated NVMe devices, the co-routine runtime,
     the buffer pool, the parallel WAL and the MVCC transaction manager. *)
  let db = Db.create Config.default in

  (* DDL *)
  let users =
    Db.create_table db ~name:"users" ~schema:[ ("name", Value.T_str); ("karma", Value.T_int) ]
  in
  Db.create_index db users ~name:"users_by_name" ~cols:[ "name" ] ~unique:true;
  let karma = Table.col users "karma" in

  (* Transactions: everything inside with_txn commits atomically. *)
  let alice =
    Db.with_txn db (fun txn -> Table.insert users txn [| Value.Str "alice"; Value.Int 10 |])
  in
  let bob =
    Db.with_txn db (fun txn -> Table.insert users txn [| Value.Str "bob"; Value.Int 3 |])
  in
  print_endline "after inserts:";
  print_user db users alice;
  print_user db users bob;

  (* Atomic read-modify-write (SQL UPDATE semantics). *)
  ignore
    (Db.with_txn db (fun txn ->
         Table.update users txn ~rid:alice (fun row ->
             match row.(karma) with
             | Value.Int k -> [| (karma, Value.Int (k + 5)) |]
             | _ -> [||])));

  (* Point lookup through the secondary index. *)
  Db.with_txn db (fun txn ->
      match Table.index_lookup_first users txn ~index:"users_by_name" ~key:[ Value.Str "alice" ] with
      | 0 -> print_endline "alice not found?!"
      | _ ->
        (* the hit's row is the table's found row until the next lookup *)
        let row = Table.found_row users txn in
        Printf.printf "index lookup: alice has karma %s\n" (Value.to_string row.(1)));

  (* A failed transaction rolls back everything it did. *)
  (try
     Db.with_txn db (fun txn ->
         ignore (Table.update ~reads:[||] users txn ~rid:bob (fun _ -> [| (karma, Value.Int 1000) |]));
         failwith "changed my mind")
   with Failure _ -> print_endline "transaction aborted; bob's karma is unchanged:");
  print_user db users bob;

  (* Unique constraints are enforced against the live row set. *)
  (try
     ignore
       (Db.with_txn db (fun txn -> Table.insert users txn [| Value.Str "alice"; Value.Int 0 |]))
   with Phoebe_txn.Txnmgr.Abort (_, msg) -> Printf.printf "duplicate insert rejected: %s\n" msg);

  (* Crash recovery: replay the WAL into a fresh instance. *)
  Db.checkpoint db;
  let db2 = Db.create Config.default in
  let users2 =
    Db.create_table db2 ~name:"users" ~schema:[ ("name", Value.T_str); ("karma", Value.T_int) ]
  in
  Db.create_index db2 users2 ~name:"users_by_name" ~cols:[ "name" ] ~unique:true;
  let report = Db.replay_wal db2 ~from:(Phoebe_wal.Wal.store (Db.wal db)) in
  Printf.printf "recovery: %d committed txns replayed, %d ops (uncommitted dropped: %d)\n"
    report.Phoebe_wal.Recovery.committed_txns report.Phoebe_wal.Recovery.ops_replayed
    report.Phoebe_wal.Recovery.ops_dropped;
  print_endline "after recovery:";
  print_user db2 users2 alice;
  print_user db2 users2 bob;

  let s = Db.stats db in
  Printf.printf "stats: %d committed, %d aborted, %d WAL records (%d bytes), RFA local=%d remote=%d\n"
    s.Db.committed s.Db.aborted s.Db.wal_records s.Db.wal_bytes s.Db.rfa_local_commits
    s.Db.rfa_remote_waits
