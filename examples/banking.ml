(* Banking: concurrent transfers on the co-routine runtime, snapshot
   isolation semantics (read committed vs repeatable read), deadlock
   detection, and the money-conservation invariant.

   Run with: dune exec examples/banking.exe *)
open Phoebe_core
module Value = Phoebe_storage.Value
module Txnmgr = Phoebe_txn.Txnmgr
module Scheduler = Phoebe_runtime.Scheduler
module Prng = Phoebe_util.Prng

let n_accounts = 50
let initial_balance = 1_000
let n_transfers = 2_000

let balance db accounts rid =
  Db.with_txn db (fun txn ->
      match Table.get accounts txn ~rid with
      | Some row -> ( match row.(1) with Value.Int v -> v | _ -> 0)
      | None -> 0)

let () =
  print_endline "== banking: concurrent transfers under MVCC ==";
  let cfg = { Config.default with Config.n_workers = 8; slots_per_worker = 16 } in
  let db = Db.create cfg in
  let accounts =
    Db.create_table db ~name:"accounts" ~schema:[ ("owner", Value.T_str); ("balance", Value.T_int) ]
  in
  Db.create_index db accounts ~name:"accounts_by_owner" ~cols:[ "owner" ] ~unique:true;
  let balance_col = Table.col accounts "balance" in
  let rids =
    Array.init n_accounts (fun i ->
        Db.with_txn db (fun txn ->
            Table.insert accounts txn
              [| Value.Str (Printf.sprintf "acct-%03d" i); Value.Int initial_balance |]))
  in
  Printf.printf "loaded %d accounts with %d each (total %d)\n" n_accounts initial_balance
    (n_accounts * initial_balance);

  (* Fire transfers as concurrent transactions. Repeatable read +
     automatic retry makes each transfer atomic; transfers that touch
     the same accounts in opposite orders are resolved by deadlock
     detection and retried. *)
  let rng = Prng.create ~seed:2024 in
  let attempted = ref 0 in
  for _ = 1 to n_transfers do
    let src = rids.(Prng.int rng n_accounts) and dst = rids.(Prng.int rng n_accounts) in
    let amount = 1 + Prng.int rng 50 in
    if src <> dst then begin
      incr attempted;
      Db.submit ~isolation:Txnmgr.Repeatable_read db (fun txn ->
          let bal rid =
            match Table.get accounts txn ~rid with
            | Some row -> ( match row.(1) with Value.Int v -> v | _ -> 0)
            | None -> 0
          in
          let src_balance = bal src in
          if src_balance >= amount then begin
            ignore
              (Table.update ~reads:[||] accounts txn ~rid:src (fun _ ->
                   [| (balance_col, Value.Int (src_balance - amount)) |]));
            let dst_balance = bal dst in
            ignore
              (Table.update ~reads:[||] accounts txn ~rid:dst (fun _ ->
                   [| (balance_col, Value.Int (dst_balance + amount)) |]))
          end)
    end
  done;
  Db.run db;

  let total = Array.fold_left (fun acc rid -> acc + balance db accounts rid) 0 rids in
  Printf.printf "ran %d transfers: %d commits, %d aborts (deadlocks/conflicts, retried)\n"
    !attempted (Db.committed db) (Db.aborted db);
  Printf.printf "total money: %d (expected %d) -- %s\n" total (n_accounts * initial_balance)
    (if total = n_accounts * initial_balance then "conserved" else "VIOLATED");

  (* Show the isolation-level difference on one account. *)
  print_endline "\n-- read committed vs repeatable read --";
  let rid = rids.(0) in
  let q = Scheduler.Waitq.create () in
  let rc = ref (0, 0) and rr = ref (0, 0) in
  let reader isolation cell =
    Scheduler.submit (Db.scheduler db) (fun () ->
        let txn = Txnmgr.begin_txn (Db.txnmgr db) ~isolation ~slot:(Scheduler.current_slot ()) in
        let read () =
          match Table.get accounts txn ~rid with
          | Some row -> ( match row.(1) with Value.Int v -> v | _ -> 0)
          | None -> 0
        in
        let before = read () in
        Scheduler.Waitq.wait q;
        cell := (before, read ());
        Txnmgr.commit (Db.txnmgr db) txn)
  in
  reader Txnmgr.Read_committed rc;
  reader Txnmgr.Repeatable_read rr;
  Scheduler.submit (Db.scheduler db) (fun () ->
      Scheduler.charge Phoebe_sim.Component.Effective 200_000;
      Db.with_txn db (fun txn ->
          ignore
            (Table.update accounts txn ~rid (fun row ->
                 match row.(balance_col) with
                 | Value.Int v -> [| (balance_col, Value.Int (v + 777)) |]
                 | _ -> [||])));
      Scheduler.Waitq.signal_all q);
  Db.run db;
  let rc_before, rc_after = !rc and rr_before, rr_after = !rr in
  Printf.printf "read committed : first read %d, after concurrent commit %d (sees new data)\n"
    rc_before rc_after;
  Printf.printf "repeatable read: first read %d, after concurrent commit %d (stable snapshot)\n"
    rr_before rr_after
