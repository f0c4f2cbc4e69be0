(* Tests for quorum replication with automated failover: group
   convergence under inserts, updates/deletes and aborts, quorum-gated
   commit visibility, durable-prefix-only shipping, primary-kill view
   change, in-doubt resolution at promotion, follower reads under a
   staleness bound, follower restart through the streaming applier
   (an undecided prepared branch stays in doubt across it), a follower
   that campaigns alone behind a partition rejoining once it heals, a
   grant fencing the granter off a live old primary, elections ranking
   a prefix by the view of its last chunk, the 100-seed randomized
   crash-during-replication durability property, and a 100-seed live
   primary election property. The fixed cases run under the sanitizer,
   so the group checks Raft's invariants ([Quorum_check.verify]) after every
   delivered message; the properties check them at quiescent points, and
   one seeded-corruption fixture per rule shows that each is named. *)
open Phoebe_core
module Quorum = Phoebe_replication.Quorum
module Quorum_check = Phoebe_replication.Quorum_check
module Value = Phoebe_storage.Value
module Device = Phoebe_io.Device
module Prng = Phoebe_util.Prng
module Obs = Phoebe_obs.Obs
module Sanitize = Phoebe_sanitize.Sanitize

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

(* A fixed case with the sanitizer on: a broken invariant raises Bug at
   the delivery that broke it. *)
let checked f () =
  Sanitize.enable ();
  Fun.protect ~finally:Sanitize.disable f

let findings q =
  List.map
    (fun (f : Quorum_check.finding) -> Quorum_check.rule_name f.rule ^ ": " ^ f.detail)
    (Quorum_check.verify (Quorum.snapshot q))

(* A quiescent point of a property: no rule may be broken. *)
let check_group ~seed q =
  match findings q with
  | [] -> ()
  | fs -> Alcotest.failf "seed %d: %s" seed (String.concat "; " fs)

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
    Db.with_txn db (fun txn -> Table.index_lookup_first (kv db) txn ~index:"kv_pk" ~key:(Table.key (kv db) txn |> Table.Key.add (Value.Int k)))
  in
  for node = 1 to Quorum.nodes q - 1 do
    let db = Quorum.db q ~node in
    check_int "the new key finds the row" !moved (lookup db 101);
    check_int "the old key finds nothing" 0 (lookup db 1);
    check_int "the deleted key finds nothing" 0 (lookup db 2)
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

(* A slow mirror delays a follower's durable count, not what it has
   received. On a network that loses nothing, the primary must never
   re-ship a chunk: go-back-N rewinds to the count the follower holds,
   not to the count its mirror has made durable. *)
let test_slow_mirror_not_reshipped () =
  let faults =
    {
      Device.fault_seed = 5;
      torn_write_p = 0.0;
      lost_ack_p = 0.0;
      delayed_ack_p = 0.5;
      max_delay_ns = 3_000_000;
    }
  in
  let q, prim = group ~cfg:{ cfg with Config.faults = Some faults } () in
  let acked = ref 0 in
  for k = 1 to 40 do
    Db.submit prim ~on_done:(fun () -> incr acked) (insert_kv prim k k);
    Quorum.run_for q ~ns:300_000
  done;
  Quorum.run_for q ~ns:50_000_000;
  check_int "every commit acknowledged" 40 !acked;
  for node = 1 to Quorum.nodes q - 1 do
    check_rows "follower converged" (dump prim) (dump (Quorum.db q ~node))
  done;
  check_int "no chunk re-shipped" 0
    (Obs.Counter.get (Obs.counter (Quorum.obs q) "quorum.retransmits"));
  Quorum.shutdown q

(* A dead follower leaves every rewind unanswered, so each waits twice
   as long as the last, up to the election timeout: over 50 ms of steady
   commits it is re-sent the view's chunks at about 1, 3, 7, 15, 25, 35
   and 45 ms, where a fixed 1 ms interval re-sent them 43 times. *)
let rewinds_to_a_dead_follower_bound = 8

let test_dead_follower_rewinds_back_off () =
  let q, prim = group () in
  let retransmits () = Obs.Counter.get (Obs.counter (Quorum.obs q) "quorum.retransmits") in
  for k = 1 to 10 do
    Db.submit prim (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:10_000_000;
  check_int "no rewind while every follower answers" 0 (retransmits ());
  Quorum.kill q ~node:2;
  let acked = ref 0 in
  for k = 11 to 110 do
    Db.submit prim ~on_done:(fun () -> incr acked) (insert_kv prim k k);
    Quorum.run_for q ~ns:500_000
  done;
  check_int "the live majority acknowledges every commit" 100 !acked;
  let rewinds = retransmits () in
  if rewinds > rewinds_to_a_dead_follower_bound then
    Alcotest.failf "the dead follower was rewound %d times in 50 ms (bound %d)" rewinds
      rewinds_to_a_dead_follower_bound;
  check_rows "the live follower holds every row" (dump prim) (dump (Quorum.db q ~node:1));
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
      if Table.index_lookup_first (kv pdb) txn ~index:"kv_pk" ~key:(Table.key (kv pdb) txn |> Table.Key.add (Value.Int 999)) = 0 then
        Alcotest.fail "promoted follower must accept writes");
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
   primary is killed [crash_at] ns later, mid-replication.
   Afterwards: a new primary must be
   elected; every commit whose quorum acknowledgement reached the
   client must be present on it; the promoted state must equal an
   independent crash-recovery replay of its own journal (the oracle);
   and the surviving follower must converge onto the new history.

   [partition = Some (node, ns)] first cuts follower [node] off for
   [ns] while [n_txns] earlier inserts commit on the other two nodes,
   then heals it. Cut off past its election timeout, the follower
   campaigns alone; healed, it must rejoin: within 100 ms, before the
   kill, it is durable to the primary's stream end. *)
let check_failover ~seed ~faults ~net ~n_txns ~crash_at ~partition =
  let fcfg = { cfg with Config.faults = Some faults } in
  let q, prim = group ~group:net ~cfg:fcfg () in
  let acked = ref [] in
  let submit first =
    for k = first to first + n_txns - 1 do
      Db.submit prim ~on_done:(fun () -> acked := k :: !acked) (insert_kv prim k (k * 3))
    done
  in
  (match partition with
  | None -> submit 1
  | Some (node, ns) ->
    Quorum.set_partitioned q ~node true;
    submit 1;
    Quorum.run_for q ~ns;
    Quorum.set_partitioned q ~node false;
    let waited = ref 0 in
    while Quorum.durable_off q ~node <> Quorum.stream_len q && !waited < 100_000_000 do
      Quorum.run_for q ~ns:1_000_000;
      waited := !waited + 1_000_000
    done;
    let durable = Quorum.durable_off q ~node and stream = Quorum.stream_len q in
    if durable <> stream then
      Alcotest.fail
        (Printf.sprintf "seed %d: node %d, cut off for %d ns, durable to %d of %d stream bytes" seed
           node ns durable stream);
    check_group ~seed q;
    submit (n_txns + 1));
  Quorum.run_for q ~ns:crash_at;
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:150_000_000;
  check_group ~seed q;
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
   a random workload size, a random kill instant, and on three seeds in
   four a partition of follower 1 or 2 for 0-40 ms, around their 12.5
   and 15 ms election timeouts. The fourth kills the primary during the
   group's first batch, from a cold stream. *)
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
  let partition = Some (1 + Prng.int rng 2, Prng.int rng 40_000_001) in
  let partition = if Prng.int rng 4 = 0 then None else partition in
  check_failover ~seed ~faults ~net ~n_txns ~crash_at ~partition

(* Fixed-seed cases with heavier WAL-device faults on a loss-free
   network, killing the primary mid-flight. *)
let heavy_faults =
  { Device.fault_seed = 17; torn_write_p = 0.05; lost_ack_p = 0.05; delayed_ack_p = 0.1; max_delay_ns = 200_000 }

let test_promote_equals_crash_recovery_under_faults () =
  check_failover ~seed:17 ~faults:heavy_faults ~net:Quorum.default_config ~n_txns:40
    ~crash_at:8_000_000 ~partition:None

(* Node 2 is cut off for 20 ms, past its 15 ms election timeout. *)
let test_partitioned_follower_rejoins () =
  check_failover ~seed:17 ~faults:heavy_faults ~net:Quorum.default_config ~n_txns:40
    ~crash_at:8_000_000 ~partition:(Some (2, 20_000_000))

(* A follower cut off past its election timeout campaigns alone, in
   views it proposes but never enters. Healed, it rejoins the view it
   left: the primary keeps its view, and commits keep flowing to all
   three nodes. A proposal that fenced its proposer the way a grant
   fences a granter would keep the healed node campaigning until it
   deposed a primary that never failed. *)
let test_lone_candidate_leaves_the_view_alone () =
  let q, prim = group () in
  let acked = ref 0 in
  let submit first =
    for k = first to first + 19 do
      Db.submit prim ~on_done:(fun () -> incr acked) (insert_kv prim k k)
    done
  in
  submit 1;
  Quorum.set_partitioned q ~node:2 true;
  Quorum.run_for q ~ns:30_000_000;
  check_bool "node 2 campaigned alone" true
    (Obs.Counter.get (Obs.counter (Quorum.obs q) "quorum.elections") > 0);
  Quorum.set_partitioned q ~node:2 false;
  submit 21;
  Quorum.run_for q ~ns:100_000_000;
  check_int "node 0 still leads" 0 (elected q);
  check_int "in view 1" 1 (Quorum.view q);
  check_int "every commit acknowledged" 40 !acked;
  check_int "node 2 durable to the stream end" (Quorum.stream_len q) (Quorum.durable_off q ~node:2);
  Quorum.shutdown q

(* A live primary during an election. Node 0 is cut off with commits
   pending, so node 1 times out first and asks node 2 for a vote. Once
   node 2's grant is on the wire, node 1 is cut off and node 0 heals:
   node 1 wins view 2 unheard, while node 0 ships view 1 to node 2.
   Having granted view 2, node 2 must ack none of it, or node 0's
   commits would reach a quorum ({0, 2}) whose history node 1 lacks.
   Node 0 is then killed and node 1 heals: every acknowledged commit
   must be on it, and node 2, whose New_view was lost, must drop node
   0's tail and converge onto it. *)
let test_grant_fences_old_primary () =
  let q, prim = group () in
  let acked = ref [] in
  let submit first =
    for k = first to first + 19 do
      Db.submit prim ~on_done:(fun () -> acked := k :: !acked) (insert_kv prim k k)
    done
  in
  submit 1;
  Quorum.run_for q ~ns:20_000_000;
  let elections = Obs.counter (Quorum.obs q) "quorum.elections" in
  Quorum.set_partitioned q ~node:0 true;
  submit 21;
  while Obs.Counter.get elections = 0 do
    Quorum.run_for q ~ns:5_000
  done;
  (* a message takes 50 us: the grant left node 2 at about 50 us and
     reaches node 1 at about 100 us *)
  Quorum.run_for q ~ns:75_000;
  Quorum.set_partitioned q ~node:1 true;
  Quorum.set_partitioned q ~node:0 false;
  Quorum.run_for q ~ns:5_000_000;
  Quorum.kill q ~node:0;
  Quorum.set_partitioned q ~node:1 false;
  Quorum.run_for q ~ns:100_000_000;
  check_int "node 1 leads" 1 (elected q);
  check_int "in view 2" 2 (Quorum.view q);
  let d = dump (elected_db q) in
  List.iter
    (fun k -> if not (List.mem_assoc k d) then Alcotest.failf "acknowledged key %d lost" k)
    !acked;
  check_rows "node 2 converged" d (dump (Quorum.db q ~node:2));
  Quorum.shutdown q

(* Elections rank a durable prefix by the view that cut its last chunk
   before its length. In a five-node group only node 3 receives 20 more
   view-1 commits, so none is acknowledged. Node 0 is killed and node 3
   cut off; nodes 1, 2 and 4 elect node 1 in view 2, which commits key
   100 on all three. Node 1 is killed and node 3 heals with the longest
   prefix, but its view-1 tail sits where the others hold view 2's: it
   must not win, and key 100 must survive. *)
let test_later_view_outranks_longer_prefix () =
  let q, prim = group ~group:{ Quorum.default_config with Quorum.replicas = 4 } () in
  let acked = ref [] in
  let submit db k = Db.submit db ~on_done:(fun () -> acked := k :: !acked) (insert_kv db k k) in
  for k = 1 to 20 do
    submit prim k
  done;
  Quorum.run_for q ~ns:20_000_000;
  List.iter (fun node -> Quorum.set_partitioned q ~node true) [ 1; 2; 4 ];
  for k = 21 to 40 do
    (* one pull each: node 3's tail outgrows what view 2 will add *)
    submit prim k;
    Quorum.run_for q ~ns:400_000
  done;
  Quorum.kill q ~node:0;
  Quorum.set_partitioned q ~node:3 true;
  List.iter (fun node -> Quorum.set_partitioned q ~node false) [ 1; 2; 4 ];
  Quorum.run_for q ~ns:40_000_000;
  check_int "node 1 leads" 1 (elected q);
  check_int "in view 2" 2 (Quorum.view q);
  submit (elected_db q) 100;
  Quorum.run_for q ~ns:10_000_000;
  check_bool "key 100 acknowledged" true (List.mem 100 !acked);
  Quorum.kill q ~node:1;
  Quorum.set_partitioned q ~node:3 false;
  Quorum.run_for q ~ns:100_000_000;
  check_bool "node 3 does not lead" true (elected q <> 3);
  let d = dump (elected_db q) in
  List.iter
    (fun k -> if not (List.mem_assoc k d) then Alcotest.failf "acknowledged key %d lost" k)
    !acked;
  check_rows "node 3 converged" d (dump (Quorum.db q ~node:3));
  Quorum.shutdown q

(* Raft's prevLogTerm check: a follower appends a chunk only if the
   chunk before it is the primary's. In a five-node group node 0, the
   primary of view 1, ships 10 more commits, one pull each, to node 3
   alone. Node 3 is cut off and node 0 killed; nodes 1, 2 and 4 elect
   node 1 in view 2, which commits 20 keys, one pull each, past node 3's
   tail. Node 1 is killed and node 3 heals: node 2 wins a later view
   with its vote. Node 3's view-1 tail sits below that view's base,
   where node 2 holds view 2's chunks: node 3 must rebuild and converge
   onto node 2's history, not count its tail toward the quorum. *)
let test_follower_rebuilds_a_deposed_tail_below_the_base () =
  let q, prim = group ~group:{ Quorum.default_config with Quorum.replicas = 4 } () in
  let acked = ref [] in
  let submit db k = Db.submit db ~on_done:(fun () -> acked := k :: !acked) (insert_kv db k k) in
  for k = 1 to 10 do
    submit prim k
  done;
  Quorum.run_for q ~ns:20_000_000;
  List.iter (fun node -> Quorum.set_partitioned q ~node true) [ 1; 2; 4 ];
  for k = 11 to 20 do
    submit prim k;
    Quorum.run_for q ~ns:400_000
  done;
  Quorum.set_partitioned q ~node:3 true;
  Quorum.kill q ~node:0;
  List.iter (fun node -> Quorum.set_partitioned q ~node false) [ 1; 2; 4 ];
  Quorum.run_for q ~ns:40_000_000;
  check_int "node 1 leads" 1 (elected q);
  let pdb = elected_db q in
  for k = 100 to 119 do
    submit pdb k;
    Quorum.run_for q ~ns:400_000
  done;
  Quorum.run_for q ~ns:10_000_000;
  check_bool "view 2's keys acknowledged" true (List.mem 119 !acked);
  let rebuilds = Obs.counter (Quorum.obs q) "quorum.rebuilds" in
  let before = Obs.Counter.get rebuilds in
  Quorum.kill q ~node:1;
  Quorum.set_partitioned q ~node:3 false;
  Quorum.run_for q ~ns:150_000_000;
  check_int "node 2 leads" 2 (elected q);
  check_bool "node 3 rebuilt" true (Obs.Counter.get rebuilds > before);
  let d = dump (elected_db q) in
  List.iter
    (fun k -> if not (List.mem_assoc k d) then Alcotest.failf "acknowledged key %d lost" k)
    !acked;
  check_rows "node 3 converged" d (dump (Quorum.db q ~node:3));
  check_int "node 3 durable to the stream end" (Quorum.stream_len q) (Quorum.durable_off q ~node:3);
  Quorum.shutdown q

(* A live primary during elections, randomized over 100 seeds: on a
   lossy network with fault-injected mirrors, one of the three nodes
   (the primary on about a third of the seeds) is cut off for 10-25 ms
   while inserts keep arriving at node 0, then healed while 30 more
   arrive. Nobody is killed, so a candidate may win against a primary
   that still serves, or fail after a vote was granted to it. 150 ms
   later the primary of the highest view must hold every acknowledged
   commit, and every other node must have converged onto it. Then
   either follower may be cut off, and the other must still ack: five
   more commits must be acknowledged within 50 ms. *)
let live_election_property seed =
  let faults =
    {
      Device.fault_seed = (seed * 31) + 7;
      torn_write_p = 0.02;
      lost_ack_p = 0.05;
      delayed_ack_p = 0.1;
      max_delay_ns = 200_000;
    }
  in
  let net = { Quorum.default_config with drop_p = 0.05; net_seed = (seed * 13) + 5 } in
  let q, prim = group ~group:net ~cfg:{ cfg with Config.faults = Some faults } () in
  let rng = Prng.create ~seed in
  let acked = ref [] and k = ref 0 in
  let submit () =
    incr k;
    let key = !k in
    Db.submit prim ~on_done:(fun () -> acked := key :: !acked) (insert_kv prim key key)
  in
  for _ = 1 to 10 do
    submit ()
  done;
  Quorum.run_for q ~ns:(Prng.int rng 10_000_000);
  let node = Prng.int rng 3 in
  let cut_ns = 10_000_000 + Prng.int rng 15_000_000 in
  Quorum.set_partitioned q ~node true;
  for _ = 1 to cut_ns / 300_000 do
    submit ();
    Quorum.run_for q ~ns:300_000
  done;
  Quorum.set_partitioned q ~node false;
  for _ = 1 to 30 do
    submit ();
    Quorum.run_for q ~ns:(Prng.int rng 600_000)
  done;
  Quorum.run_for q ~ns:150_000_000;
  check_group ~seed q;
  let p = elected q in
  let d = dump (Quorum.db q ~node:p) in
  List.iter
    (fun key ->
      if not (List.mem_assoc key d) then
        Alcotest.failf "seed %d: acknowledged key %d lost (node %d cut off)" seed key node)
    !acked;
  for other = 0 to 2 do
    if other <> p && dump (Quorum.db q ~node:other) <> d then
      Alcotest.failf "seed %d: node %d diverged from primary %d (node %d cut off)" seed other p node
  done;
  let pdb = Quorum.db q ~node:p in
  let follower = (p + 1 + Prng.int rng 2) mod 3 in
  Quorum.set_partitioned q ~node:follower true;
  let late = ref 0 in
  for key = 1001 to 1005 do
    Db.submit pdb ~on_done:(fun () -> incr late) (insert_kv pdb key key)
  done;
  Quorum.run_for q ~ns:50_000_000;
  if !late <> 5 then
    Alcotest.failf "seed %d: %d of 5 commits acknowledged with node %d cut off" seed !late follower;
  check_group ~seed q;
  Quorum.shutdown q

let test_live_election_property_100_seeds () =
  for seed = 1 to 100 do
    live_election_property seed
  done

(* A seed of the property on which a New_view cut keeps chunks whose
   mirror writes are still in flight. A cut voids their durability
   callbacks, so it must drop them to be re-shipped, or the follower's
   durable prefix stops growing and it never converges. *)
let test_cut_drops_chunks_not_yet_durable () = live_election_property 513

let test_crash_property_100_seeds () =
  for seed = 1 to 100 do
    crash_property seed
  done

(* The checker on a sound group and on one corruption per rule. The
   group commits in view 1, fails over, and commits in view 2, so the
   snapshot holds two views' chunks and releases. Each corruption must
   be named, and only by its rule. *)
let sound_snapshot () =
  let q, prim = group () in
  for k = 1 to 20 do
    Db.submit prim (insert_kv prim k k)
  done;
  Quorum.run_for q ~ns:20_000_000;
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:60_000_000;
  let pdb = elected_db q in
  for k = 21 to 30 do
    Db.submit pdb (insert_kv pdb k k)
  done;
  Quorum.run_for q ~ns:20_000_000;
  Quorum.shutdown q;
  (Quorum.snapshot q, elected q)

let named (s : Quorum_check.snapshot) =
  List.sort_uniq String.compare
    (List.map (fun (f : Quorum_check.finding) -> Quorum_check.rule_name f.rule) (Quorum_check.verify s))

let test_verify_fixtures () =
  let s, p = sound_snapshot () in
  let f = if p = 1 then 2 else 1 in
  let views = List.map (fun (r : Quorum_check.release) -> r.r_view) s.releases in
  Alcotest.(check (list int)) "views 1 and 2 released commits" [ 1; 2 ] views;
  Alcotest.(check (list string)) "a sound group" [] (named s);
  let with_member id g =
    { s with members = Array.map (fun m -> if m.Quorum_check.s_id = id then g m else m) s.members }
  in
  let expect rule corrupt = Alcotest.(check (list string)) rule [ rule ] (named corrupt) in
  let pv = Option.get s.members.(p).s_leads in
  expect "election-safety" { s with leaders = (pv, f) :: s.leaders };
  (* a follower's first chunk one byte longer: both still hold the
     last chunk in view 2 *)
  expect "log-matching"
    (with_member f (fun m ->
         let c = Array.copy m.s_chunks in
         c.(0) <- { (c.(0)) with e_len = c.(0).e_len + 1 };
         { m with s_chunks = c }));
  expect "leader-completeness"
    {
      s with
      releases = List.map (fun (r : Quorum_check.release) -> { r with r_end = r.r_end + 1 }) s.releases;
    };
  expect "node-order" (with_member f (fun m -> { m with s_applied = m.s_safe + 1 }));
  expect "node-order"
    (with_member f (fun m ->
         let c = Array.copy m.s_chunks in
         let last = Array.length c - 1 in
         c.(last) <- { (c.(last)) with e_view = 0 };
         { m with s_chunks = c }))

let fixed name f = Alcotest.test_case name `Quick (checked f)

let () =
  Alcotest.run "phoebe_quorum"
    [
      ( "group",
        [
          fixed "convergence" (test_convergence inserts);
          fixed "commit gated on quorum" test_commit_gated_on_quorum;
          fixed "follower reads and staleness"
            test_follower_reads_and_staleness;
          fixed "follower restart" test_follower_restart;
          fixed "follower restart keeps an undecided prepared branch"
            test_follower_restart_keeps_prepared;
        ] );
      ( "shipping",
        [
          fixed "basic convergence" (test_convergence batched_inserts);
          fixed "lag and catch-up" test_lag_and_catchup;
          fixed "promote == crash recovery under faults"
            test_promote_equals_crash_recovery_under_faults;
          fixed "updates and deletes" (test_convergence updates_and_deletes);
          fixed "key update and delete keep the follower index"
            test_follower_key_update_and_delete;
          fixed "uncommitted withheld" (test_convergence aborted_txn);
          fixed "volatile tail withheld" test_volatile_tail_withheld;
          fixed "a slow mirror is not re-shipped" test_slow_mirror_not_reshipped;
          fixed "rewinds to a dead follower back off" test_dead_follower_rewinds_back_off;
        ] );
      ( "failover",
        [
          fixed "promote" test_failover_promote;
          fixed "automated failover" test_automated_failover;
          fixed "promote resolves in-doubt" test_promote_resolves_in_doubt;
          fixed "partitioned follower rejoins" test_partitioned_follower_rejoins;
          fixed "a lone candidate leaves the view alone" test_lone_candidate_leaves_the_view_alone;
          fixed "a grant fences off the old primary"
            test_grant_fences_old_primary;
          fixed "a later view outranks a longer prefix"
            test_later_view_outranks_longer_prefix;
          fixed "a follower rebuilds a deposed tail below the base"
            test_follower_rebuilds_a_deposed_tail_below_the_base;
          fixed "a cut drops chunks not yet durable"
            test_cut_drops_chunks_not_yet_durable;
          Alcotest.test_case "primary crash property (100 seeds)" `Slow
            test_crash_property_100_seeds;
          Alcotest.test_case "live primary election property (100 seeds)" `Slow
            test_live_election_property_100_seeds;
        ] );
      ( "checker",
        [ Alcotest.test_case "each rule's corruption is named" `Quick test_verify_fixtures ] );
    ]
