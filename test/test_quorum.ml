(* Tests for quorum replication with automated failover: group
   convergence under inserts, updates/deletes and aborts, quorum-gated
   commit visibility, durable-prefix-only shipping, primary-kill view
   change, in-doubt resolution at promotion, follower reads under a
   staleness bound, follower restart through the streaming applier
   (an undecided prepared branch stays in doubt across it), and the
   100-seed randomized crash-during-replication durability property. *)
open Phoebe_core
module Quorum = Phoebe_replication.Quorum
module Value = Phoebe_storage.Value
module Device = Phoebe_io.Device
module Prng = Phoebe_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_rows = Alcotest.(check (list (pair int int)))

let cfg = { Config.default with Config.n_workers = 2; slots_per_worker = 4 }

let ddl db =
  let t = Db.create_table db ~name:"kv" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
  Db.create_index db t ~name:"kv_pk" ~cols:[ "k" ] ~unique:true

let kv db = Db.table db "kv"
let int_of = function Value.Int v -> v | _ -> Alcotest.fail "int expected"

let dump db =
  let t = kv db in
  Db.with_txn db (fun txn ->
      let acc = ref [] in
      Table.scan t txn (fun _ row -> acc := (int_of row.(0), int_of row.(1)) :: !acc);
      List.sort compare !acc)

let insert_kv db k v txn = ignore (Table.insert (kv db) txn [| Value.Int k; Value.Int v |])

(* A fresh group and its initial primary's database. *)
let group ?group ?decide_in_doubt ?(cfg = cfg) () =
  let q = Quorum.create ?group ?decide_in_doubt cfg ~ddl in
  (q, Option.get (Quorum.primary_db q))

let elected q =
  match Quorum.primary q with
  | Some p -> p
  | None -> Alcotest.fail "no primary elected after the kill"

let elected_db q = Quorum.db q ~node:(elected q)

(* Workloads for [test_convergence]: each drives the primary, runs the
   group and checks its own outcome on the primary. *)
let inserts q prim =
  let acked = ref 0 in
  for k = 1 to 60 do
    Db.submit prim ~on_done:(fun () -> incr acked) (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:60_000_000;
  check_int "every commit quorum-acknowledged" 60 !acked;
  check_int "primary holds all rows" 60 (List.length (dump prim))

(* Multi-row transactions ship and apply whole at commit boundaries. *)
let batched_inserts q prim =
  for b = 0 to 9 do
    Db.submit prim (fun txn -> for k = (b * 5) + 1 to (b * 5) + 5 do insert_kv prim k k txn done)
  done;
  Quorum.run_for q ~ns:60_000_000;
  check_bool "records shipped" true (Quorum.stream_len q > 0 && Quorum.net_utilization q > 0.0);
  check_int "primary holds all rows" 50 (List.length (dump prim))

(* Updates and deletes must apply on the replicas in the primary's
   order, on the rows the primary's rids name. *)
let updates_and_deletes q prim =
  let rng = Prng.create ~seed:4 in
  let rids = ref [] in
  for k = 1 to 30 do
    Db.submit prim (fun txn -> rids := Table.insert (kv prim) txn [| Value.Int k; Value.Int 0 |] :: !rids)
  done;
  Quorum.run_for q ~ns:10_000_000;
  for _ = 1 to 100 do
    let rid = List.nth !rids (Prng.int rng (List.length !rids)) in
    let delete = Prng.int rng 10 = 0 in
    Db.submit prim (fun txn ->
        if delete then ignore (Table.delete (kv prim) txn ~rid)
        else ignore (Table.update (kv prim) txn ~rid (fun row -> [| (1, Value.Int (int_of row.(1) + 1)) |])))
  done;
  Quorum.run_for q ~ns:60_000_000;
  check_bool "the mix updated rows" true (List.exists (fun (_, v) -> v > 0) (dump prim))

(* An aborted transaction's records reach the durable stream, but its
   insert must never apply anywhere. *)
let aborted_txn q prim =
  (try
     Db.with_txn prim (fun txn ->
         insert_kv prim 666 666 txn;
         failwith "abort me")
   with Failure _ -> ());
  Phoebe_wal.Wal.flush_all (Db.wal prim) ~on_done:(fun () -> ());
  Db.submit prim (insert_kv prim 1 1);
  Quorum.run_for q ~ns:60_000_000;
  check_rows "only the committed row" [ (1, 1) ] (dump prim)

(* Every follower converges onto the primary, and the follower elected
   after the primary is killed holds exactly the same rows. *)
let test_convergence workload () =
  let q, prim = group () in
  workload q prim;
  let d = dump prim in
  for node = 1 to Quorum.nodes q - 1 do
    check_rows "follower converged" d (dump (Quorum.db q ~node))
  done;
  check_int "both replicas durable to the stream end" (Quorum.stream_len q)
    (min (Quorum.durable_off q ~node:1) (Quorum.durable_off q ~node:2));
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:60_000_000;
  check_rows "elected primary holds the same rows" d (dump (elected_db q));
  Quorum.shutdown q

(* Outside a fiber, commit durability waits no-op (loader semantics),
   so these commits sit in the primary's volatile WAL tail, which is
   exactly what a primary crash loses. Killed at that instant, the
   primary must have shipped none of them. *)
let test_volatile_tail_withheld () =
  let q, prim = group () in
  for k = 1 to 10 do
    Db.with_txn prim (insert_kv prim k k)
  done;
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:60_000_000;
  check_int "volatile tail never ships" 0 (List.length (dump (elected_db q)));
  Quorum.shutdown q

(* Commit visibility must be gated on the quorum: with every follower
   partitioned away no commit may be acknowledged, and healing the
   partition releases them all. *)
let test_commit_gated_on_quorum () =
  let q, prim = group () in
  Quorum.set_partitioned q ~node:1 true;
  Quorum.set_partitioned q ~node:2 true;
  let acked = ref 0 in
  for k = 1 to 5 do
    Db.submit prim ~on_done:(fun () -> incr acked) (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:5_000_000;
  check_int "no ack without a quorum" 0 !acked;
  Quorum.set_partitioned q ~node:1 false;
  Quorum.set_partitioned q ~node:2 false;
  Quorum.run_for q ~ns:30_000_000;
  check_int "all released once the quorum heals" 5 !acked;
  Quorum.shutdown q

let test_automated_failover () =
  let q, prim0 = group () in
  let acked = ref [] in
  for k = 1 to 40 do
    Db.submit prim0 ~on_done:(fun () -> acked := k :: !acked) (insert_kv prim0 k k)
  done;
  Quorum.run_for q ~ns:30_000_000;
  check_bool "some commits acknowledged before the kill" true (!acked <> []);
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:60_000_000;
  let p = elected q in
  check_bool "a follower took over" true (p <> 0);
  check_bool "view advanced" true (Quorum.view q >= 2);
  let pdb = Quorum.db q ~node:p in
  let d = dump pdb in
  List.iter
    (fun k -> check_bool "acknowledged key survived failover" true (List.mem_assoc k d))
    !acked;
  (* the new primary quorum-commits new writes *)
  let acked2 = ref 0 in
  for k = 100 to 110 do
    Db.submit pdb ~on_done:(fun () -> incr acked2) (insert_kv pdb k k)
  done;
  Quorum.run_for q ~ns:40_000_000;
  check_int "writes continue in the new view" 11 !acked2;
  (* and the surviving follower converges onto the new history *)
  let other = if p = 1 then 2 else 1 in
  check_rows "surviving follower converged" (dump pdb) (dump (Quorum.db q ~node:other));
  Quorum.shutdown q

(* The replica applier keeps a follower's index in step: after a
   key-column update and a delete ship, the new key finds the row and
   the old and the deleted key find nothing. Once the follower is
   promoted the old key takes a fresh insert: a stale entry naming the
   live row would make it look taken. *)
let test_follower_key_update_and_delete () =
  let q, prim = group () in
  let moved = ref 0 and gone = ref 0 in
  Db.submit prim (fun txn ->
      moved := Table.insert (kv prim) txn [| Value.Int 1; Value.Int 10 |];
      gone := Table.insert (kv prim) txn [| Value.Int 2; Value.Int 20 |]);
  Quorum.run_for q ~ns:10_000_000;
  Db.submit prim (fun txn -> ignore (Table.update (kv prim) txn ~rid:!moved (fun _ -> [| (0, Value.Int 101) |])));
  Db.submit prim (fun txn -> ignore (Table.delete (kv prim) txn ~rid:!gone));
  Quorum.run_for q ~ns:60_000_000;
  let lookup db k =
    Db.with_txn db (fun txn ->
        Option.map fst (Table.index_lookup_first (kv db) txn ~index:"kv_pk" ~key:[ Value.Int k ]))
  in
  for node = 1 to Quorum.nodes q - 1 do
    let db = Quorum.db q ~node in
    Alcotest.(check (option int)) "the new key finds the row" (Some !moved) (lookup db 101);
    Alcotest.(check (option int)) "the old key finds nothing" None (lookup db 1);
    Alcotest.(check (option int)) "the deleted key finds nothing" None (lookup db 2)
  done;
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:60_000_000;
  let pdb = elected_db q in
  Db.with_txn pdb (insert_kv pdb 1 11);
  check_rows "the promoted follower's rows" [ (1, 11); (101, 10) ] (dump pdb);
  Quorum.shutdown q

(* Right after a burst the followers trail the primary; with the
   group left running they catch up to the stream end. *)
let test_lag_and_catchup () =
  let q, prim = group () in
  for k = 1 to 40 do
    Db.submit prim (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:300_000;
  check_bool "follower trailed during the burst" true (List.length (dump (Quorum.db q ~node:2)) < 40);
  Quorum.run_for q ~ns:50_000_000;
  check_rows "caught up afterwards" (dump prim) (dump (Quorum.db q ~node:2));
  check_int "no residual lag" (Quorum.stream_len q) (Quorum.durable_off q ~node:2);
  Quorum.shutdown q

(* The promoted follower holds every row the old primary committed and
   serves new writes through its own indexes. *)
let test_failover_promote () =
  let q, prim = group () in
  for k = 1 to 20 do
    Db.submit prim (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:20_000_000;
  let d = dump prim in
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:60_000_000;
  check_bool "old primary is down" false (Quorum.is_alive q ~node:0);
  let pdb = elected_db q in
  check_rows "committed txns survived failover" d (dump pdb);
  Db.with_txn pdb (insert_kv pdb 999 1);
  Db.with_txn pdb (fun txn ->
      match Table.index_lookup_first (kv pdb) txn ~index:"kv_pk" ~key:[ Value.Int 999 ] with
      | Some _ -> ()
      | None -> Alcotest.fail "promoted follower must accept writes");
  Quorum.shutdown q

(* A branch transaction that prepared and never hears its decision must
   reach [decide_in_doubt] at promotion, not be silently dropped. *)
let test_promote_resolves_in_doubt () =
  let seen = ref (-1) in
  let decide_in_doubt (d : Phoebe_wal.Recovery.in_doubt) =
    seen := d.gxid;
    true
  in
  let q, prim = group ~decide_in_doubt () in
  Db.submit prim (insert_kv prim 1 1);
  Quorum.run_for q ~ns:5_000_000;
  let txn = Db.begin_txn prim in
  insert_kv prim 2 2 txn;
  Phoebe_txn.Txnmgr.prepare (Db.txnmgr prim) txn ~gxid:77 ~coord:1;
  Quorum.run_for q ~ns:5_000_000;
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:60_000_000;
  check_int "in-doubt branch surfaced with its gxid" 77 !seen;
  check_rows "decided-commit branch applied at promotion" [ (1, 1); (2, 2) ] (dump (elected_db q));
  Quorum.shutdown q

let test_follower_reads_and_staleness () =
  let q, prim = group () in
  for k = 1 to 20 do
    Db.submit prim (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:20_000_000;
  let db1 = Quorum.db q ~node:1 in
  let n =
    Quorum.follower_read q ~node:1 (fun txn ->
        let c = ref 0 in
        Table.scan (kv db1) txn (fun _ _ -> incr c);
        !c)
  in
  check_int "caught-up follower serves the applied state" 20 n;
  check_bool "staleness within the bound" true (Quorum.staleness_ns q ~node:1 <= 5_000_000);
  (* a partitioned follower falls behind the bound and must refuse *)
  Quorum.set_partitioned q ~node:1 true;
  Quorum.run_for q ~ns:10_000_000;
  check_bool "stale follower rejects the read" true
    (try
       Quorum.follower_read q ~node:1 (fun _ -> ());
       false
     with Quorum.Stale_read _ -> true);
  (* an explicit looser bound still serves *)
  let n =
    Quorum.follower_read ~max_staleness_ns:60_000_000 q ~node:1 (fun txn ->
        let c = ref 0 in
        Table.scan (kv db1) txn (fun _ _ -> incr c);
        !c)
  in
  check_int "explicit bound overrides the default" 20 n;
  Quorum.shutdown q

let test_follower_restart () =
  let q, prim = group () in
  for k = 1 to 30 do
    Db.submit prim (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:25_000_000;
  (* restart node 2: volatile stream state is lost, the journaled
     prefix is re-applied through the streaming applier *)
  Quorum.restart_follower q ~node:2;
  check_rows "restart recovered the journaled prefix" (dump prim) (dump (Quorum.db q ~node:2));
  for k = 31 to 50 do
    Db.submit prim (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:30_000_000;
  check_rows "restarted follower re-synced and converged" (dump prim)
    (dump (Quorum.db q ~node:2));
  check_int "re-synced to the stream end" (Quorum.stream_len q) (Quorum.durable_off q ~node:2);
  Quorum.shutdown q

(* A follower restarted while a prepared branch awaits its decision
   must keep the branch in doubt, not decide it on the spot: when the
   Commit arrives afterwards, the restarted follower applies it like
   every other node. *)
let test_follower_restart_keeps_prepared () =
  let q, prim = group () in
  Db.submit prim (insert_kv prim 1 1);
  Quorum.run_for q ~ns:5_000_000;
  let txn = Db.begin_txn prim in
  insert_kv prim 2 2 txn;
  Phoebe_txn.Txnmgr.prepare (Db.txnmgr prim) txn ~gxid:77 ~coord:1;
  Quorum.run_for q ~ns:5_000_000;
  Quorum.restart_follower q ~node:2;
  Phoebe_txn.Txnmgr.commit (Db.txnmgr prim) txn;
  Quorum.run_for q ~ns:30_000_000;
  for node = 0 to Quorum.nodes q - 1 do
    check_rows "branch committed on every node" [ (1, 1); (2, 2) ] (dump (Quorum.db q ~node))
  done;
  Quorum.shutdown q

(* The failover durability check: a 3-node group with fault-injected
   WAL and mirror devices on network [net] commits [n_txns] inserts; the
   primary is killed at virtual instant [crash_at], mid-replication.
   Afterwards: a new primary must be
   elected; every commit whose quorum acknowledgement reached the
   client must be present on it; the promoted state must equal an
   independent crash-recovery replay of its own journal (the oracle);
   and the surviving follower must converge onto the new history. *)
let check_failover ~seed ~faults ~net ~n_txns ~crash_at =
  let fcfg = { cfg with Config.faults = Some faults } in
  let q, prim = group ~group:net ~cfg:fcfg () in
  let acked = ref [] in
  for k = 1 to n_txns do
    Db.submit prim ~on_done:(fun () -> acked := k :: !acked) (insert_kv prim k (k * 3))
  done;
  Quorum.run_for q ~ns:crash_at;
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:150_000_000;
  (match Quorum.primary q with
  | None -> Alcotest.fail (Printf.sprintf "seed %d: no primary elected" seed)
  | Some p ->
    let pdb = Quorum.db q ~node:p in
    let d = dump pdb in
    List.iter
      (fun k ->
        if not (List.mem_assoc k d) then
          Alcotest.fail
            (Printf.sprintf "seed %d: quorum-acknowledged key %d lost at failover" seed k))
      !acked;
    (* promoted state == independent crash-recovery replay of its journal *)
    let oracle = Db.create_on (Quorum.engine q) cfg in
    ddl oracle;
    Quorum.replay_durable_prefix q ~node:p ~into:oracle;
    if dump oracle <> d then
      Alcotest.fail (Printf.sprintf "seed %d: promoted state diverges from recovery oracle" seed);
    (* the surviving follower converges onto the new primary's history *)
    let other = if p = 1 then 2 else 1 in
    if dump (Quorum.db q ~node:other) <> d then
      Alcotest.fail (Printf.sprintf "seed %d: surviving follower diverged after catch-up" seed));
  Quorum.shutdown q

(* The durability property, randomized over 100 seeds: a lossy network,
   a random workload size and a random kill instant. *)
let crash_property seed =
  let faults =
    {
      Device.fault_seed = (seed * 31) + 7;
      torn_write_p = 0.02;
      lost_ack_p = 0.02;
      delayed_ack_p = 0.05;
      max_delay_ns = 200_000;
    }
  in
  let net = { Quorum.default_config with drop_p = 0.02; net_seed = (seed * 13) + 5 } in
  let rng = Prng.create ~seed in
  let n_txns = 20 + Prng.int rng 40 in
  let crash_at = 500_000 + Prng.int rng 20_000_000 in
  check_failover ~seed ~faults ~net ~n_txns ~crash_at

(* Fixed-seed case with heavier WAL-device faults on a loss-free
   network, killing the primary mid-flight. *)
let test_promote_equals_crash_recovery_under_faults () =
  let faults =
    { Device.fault_seed = 17; torn_write_p = 0.05; lost_ack_p = 0.05; delayed_ack_p = 0.1; max_delay_ns = 200_000 }
  in
  check_failover ~seed:17 ~faults ~net:Quorum.default_config ~n_txns:40 ~crash_at:8_000_000

let test_crash_property_100_seeds () =
  for seed = 1 to 100 do
    crash_property seed
  done

let () =
  Alcotest.run "phoebe_quorum"
    [
      ( "group",
        [
          Alcotest.test_case "convergence" `Quick (test_convergence inserts);
          Alcotest.test_case "commit gated on quorum" `Quick test_commit_gated_on_quorum;
          Alcotest.test_case "follower reads and staleness" `Quick
            test_follower_reads_and_staleness;
          Alcotest.test_case "follower restart" `Quick test_follower_restart;
          Alcotest.test_case "follower restart keeps an undecided prepared branch" `Quick
            test_follower_restart_keeps_prepared;
        ] );
      ( "shipping",
        [
          Alcotest.test_case "basic convergence" `Quick (test_convergence batched_inserts);
          Alcotest.test_case "lag and catch-up" `Quick test_lag_and_catchup;
          Alcotest.test_case "promote == crash recovery under faults" `Quick
            test_promote_equals_crash_recovery_under_faults;
          Alcotest.test_case "updates and deletes" `Quick (test_convergence updates_and_deletes);
          Alcotest.test_case "key update and delete keep the follower index" `Quick
            test_follower_key_update_and_delete;
          Alcotest.test_case "uncommitted withheld" `Quick (test_convergence aborted_txn);
          Alcotest.test_case "volatile tail withheld" `Quick test_volatile_tail_withheld;
        ] );
      ( "failover",
        [
          Alcotest.test_case "promote" `Quick test_failover_promote;
          Alcotest.test_case "automated failover" `Quick test_automated_failover;
          Alcotest.test_case "promote resolves in-doubt" `Quick test_promote_resolves_in_doubt;
          Alcotest.test_case "primary crash property (100 seeds)" `Slow
            test_crash_property_100_seeds;
        ] );
    ]
