(* Sharded scale-out: a 4-shard cluster on one simulated box, serving a
   mix of single-shard deposits and cross-shard transfers. Local
   transactions commit on their home shard alone; a transfer touches two
   shards and goes through two-phase commit over the simulated fabric
   (prepare -> votes -> coordinator commit = the durable decision ->
   decide messages).

   Run with: dune exec examples/sharded_cluster.exe *)
open Phoebe_core
module Cluster = Phoebe_shard.Cluster
module Net = Phoebe_shard.Net
module Value = Phoebe_storage.Value
module Prng = Phoebe_util.Prng

let shards = 4
let accounts_per_shard = 100

(* account ids are dense; routing is id / accounts_per_shard *)
let shard_of_account id = id / accounts_per_shard
let local_id id = id mod accounts_per_shard

(* a read-modify-write of one account's balance, by column index *)
let add_balance t txn ~rid delta =
  let balance = Table.col t "balance" in
  ignore
    (Table.update ~reads:[| balance |] t txn ~rid (fun row ->
         match row.(balance) with
         | Value.Int b -> [| (balance, Value.Int (b + delta)) |]
         | _ -> assert false))

let () =
  print_endline "== 4-shard cluster: local deposits + cross-shard transfers ==";
  let eng = Phoebe_sim.Engine.create () in
  let cfg = { Config.default with Config.n_workers = 2; slots_per_worker = 8 } in
  let cl = Cluster.create eng ~shards cfg in
  (* same DDL on every shard: a partition of the accounts table *)
  for k = 0 to shards - 1 do
    let db = Cluster.shard cl k in
    let t =
      Db.create_table db ~name:"accounts"
        ~schema:[ ("id", Value.T_int); ("balance", Value.T_int) ]
    in
    Db.create_index db t ~name:"accounts_pk" ~cols:[ "id" ] ~unique:true
  done;
  (* seed rows (bulk load, outside the simulation) *)
  for k = 0 to shards - 1 do
    let db = Cluster.shard cl k in
    Db.with_txn db (fun txn ->
        for i = 0 to accounts_per_shard - 1 do
          ignore (Table.insert (Db.table db "accounts") txn [| Value.Int i; Value.Int 1_000 |])
        done)
  done;

  (* the remote half of a transfer, installed on every shard *)
  let credit ~shard:_ db txn args =
    let t = Db.table db "accounts" in
    (match Table.index_lookup_first t txn ~index:"accounts_pk" ~key:[ args.(0) ] with
    | Some (rid, _) ->
      let amount = match args.(1) with Value.Int a -> a | _ -> assert false in
      add_balance t txn ~rid amount
    | None -> raise (Phoebe_txn.Txnmgr.Abort (Phoebe_txn.Txnmgr.User, "no such account")));
    [||]
  in
  let credit_proc = Cluster.register_proc cl credit in

  let rng = Prng.create ~seed:7 in
  let transfers = ref 0 in
  (* 2000 arrivals paced at 2000/s of virtual time — a sustained load,
     not a thundering herd against the 10 ms message timeout *)
  for i = 1 to 2_000 do
    let src = Prng.int rng (shards * accounts_per_shard) in
    let home = shard_of_account src in
    let at = i * 500_000 in
    if Prng.float rng 1.0 < 0.10 then begin
      (* cross-shard transfer: debit at home, credit on another shard *)
      incr transfers;
      let dst = (src + accounts_per_shard + Prng.int rng accounts_per_shard) mod (shards * accounts_per_shard) in
      Phoebe_sim.Engine.schedule eng ~delay:at (fun () ->
      Cluster.submit_dtxn cl ~home (fun dtx ->
          let db = Cluster.shard cl home in
          let txn = Cluster.dtxn_txn dtx in
          let t = Db.table db "accounts" in
          (match
             Table.index_lookup_first t txn ~index:"accounts_pk" ~key:[ Value.Int (local_id src) ]
           with
          | Some (rid, _) ->
            add_balance t txn ~rid (-10)
          | None -> assert false);
          ignore
            (Cluster.remote_exec cl dtx ~shard:(shard_of_account dst) ~proc:credit_proc
               ~args:[| Value.Int (local_id dst); Value.Int 10 |])))
    end
    else
      (* single-shard deposit: no protocol, plain local commit *)
      Phoebe_sim.Engine.schedule eng ~delay:at (fun () ->
      Cluster.submit_local cl ~shard:home (fun txn ->
          let db = Cluster.shard cl home in
          let t = Db.table db "accounts" in
          match
            Table.index_lookup_first t txn ~index:"accounts_pk" ~key:[ Value.Int (local_id src) ]
          with
          | Some (rid, _) ->
            add_balance t txn ~rid 1
          | None -> assert false))
  done;
  Cluster.run cl;

  print_endline "\n-- per-shard throughput --";
  let total_committed = ref 0 in
  for k = 0 to shards - 1 do
    let db = Cluster.shard cl k in
    let s = Db.stats db in
    total_committed := !total_committed + s.Db.committed;
    Printf.printf "  shard %d: %5d committed  %3d aborted  cpu %4.1f%%  wal %d KB\n" k
      s.Db.committed s.Db.aborted
      (100.0 *. s.Db.cpu_busy_fraction)
      (s.Db.wal_durable_bytes / 1024)
  done;

  let s = Cluster.stats cl in
  Printf.printf "\n-- cluster --\n";
  Printf.printf "  committed (all shards)     %d\n" !total_committed;
  Printf.printf "  cross-shard offered        %d\n" !transfers;
  Printf.printf "  2PC started / committed    %d / %d\n" s.Cluster.started s.Cluster.committed;
  Printf.printf "  2PC aborted                %d\n" s.Cluster.aborted;
  Printf.printf "  branches prepared          %d\n" s.Cluster.branches_prepared;
  Printf.printf "  branches committed         %d\n" s.Cluster.branches_committed;
  Printf.printf "  network messages / bytes   %d / %d\n" (Net.msgs (Cluster.net cl))
    (Net.bytes (Cluster.net cl));

  (* money conservation: every debit matched by a credit *)
  let total_balance = ref 0 in
  for k = 0 to shards - 1 do
    let db = Cluster.shard cl k in
    Db.with_txn db (fun txn ->
        Table.scan (Db.table db "accounts") txn (fun _ row ->
            match row.(1) with Value.Int b -> total_balance := !total_balance + b | _ -> ()))
  done;
  (* every shard's committed count includes its seed txn, its deposits,
     and — for cross-shard transfers — one commit at the coordinator and
     one per branch; transfers move money but never create it *)
  let deposits = !total_committed - shards - (2 * s.Cluster.committed) in
  Printf.printf "\n  total balance %d (seeded %d + %d committed deposits; transfers conserve)\n"
    !total_balance
    (shards * accounts_per_shard * 1_000)
    deposits;
  assert (!total_balance = (shards * accounts_per_shard * 1_000) + deposits)
