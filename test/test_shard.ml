(* Sharded cluster tests: message codec, the simulated fabric, 2PC
   happy/failure paths, crash windows around the decision point, and the
   100-seed randomized cross-shard atomicity property — kill the
   cluster between prepare and commit under message loss and device
   faults, and no acknowledged cross-shard transaction may come back
   half-applied. *)
open Phoebe_core
module Cluster = Phoebe_shard.Cluster
module Msg = Phoebe_shard.Msg
module Net = Phoebe_shard.Net
module Netchan = Phoebe_sim.Netchan
module Engine = Phoebe_sim.Engine
module Value = Phoebe_storage.Value
module Device = Phoebe_io.Device
module Prng = Phoebe_util.Prng
module Latch = Phoebe_storage.Latch
module Sanitize = Phoebe_sanitize.Sanitize

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Msg codec *)

let roundtrip m =
  let m' = Msg.decode (Msg.encode m) in
  check_bool ("roundtrip " ^ Msg.payload_label m.Msg.payload) true (m = m')

let test_msg_roundtrip () =
  let mk payload = { Msg.gxid = 123456; src = 2; dst = 5; payload } in
  roundtrip (mk (Msg.Exec { proc = 3; args = [| Value.Int 42; Value.Str "abc"; Value.Float 1.5 |] }));
  roundtrip (mk (Msg.Exec { proc = 0; args = [||] }));
  roundtrip (mk (Msg.Exec_ok { results = [| Value.Str "dist-info"; Value.Null |] }));
  roundtrip (mk (Msg.Exec_failed { reason = 3 }));
  roundtrip (mk Msg.Prepare);
  roundtrip (mk Msg.Vote_yes);
  roundtrip (mk Msg.Vote_no);
  roundtrip (mk Msg.Decide_commit);
  roundtrip (mk Msg.Decide_abort);
  roundtrip (mk Msg.Status_req);
  let m = mk Msg.Prepare in
  check_int "size matches encoding" (Bytes.length (Msg.encode m)) (Msg.size_bytes m)

(* ------------------------------------------------------------------ *)
(* Netchan: latency + serialization delay, FIFO per link *)

let test_netchan_fifo () =
  let eng = Engine.create () in
  (* 1 Gb/s = 8 ns/byte; 1000-byte messages serialize in 8 µs *)
  let chan = Netchan.create eng ~nodes:2 ~latency_ns:1_000 ~gbps:1.0 in
  let deliveries = ref [] in
  Netchan.send chan ~src:0 ~dst:1 ~bytes:1000 (fun () ->
      deliveries := ("a", Engine.now eng) :: !deliveries);
  Netchan.send chan ~src:0 ~dst:1 ~bytes:1000 (fun () ->
      deliveries := ("b", Engine.now eng) :: !deliveries);
  Engine.run eng;
  (match List.rev !deliveries with
  | [ ("a", ta); ("b", tb) ] ->
    check_int "first: serialize + latency" 9_000 ta;
    (* the second message queues behind the first on the link *)
    check_int "second: queued behind the first" 17_000 tb
  | _ -> Alcotest.fail "expected two in-order deliveries");
  check_int "msgs counted" 2 (Netchan.msgs chan);
  check_int "bytes counted" 2000 (Netchan.bytes chan)

(* ------------------------------------------------------------------ *)
(* Cluster fixtures: a per-shard "xfer" marker table with a unique id
   index; a cross-shard transfer writes (id, 0) at home and (id, 1) on
   the remote shard through a registered procedure. *)

let base_cfg ?faults () =
  { Config.default with Config.n_workers = 2; slots_per_worker = 4; faults }

let xfer_ddl _k db =
  let t =
    Db.create_table db ~name:"xfer" ~schema:[ ("id", Value.T_int); ("side", Value.T_int) ]
  in
  Db.create_index db t ~name:"xfer_pk" ~cols:[ "id" ] ~unique:true

let insert_proc ~shard:_ db txn args =
  ignore (Table.insert (Db.table db "xfer") txn [| args.(0); args.(1) |]);
  [||]

let make_cluster ?net ?msg_timeout_ns ?decision_poll_ns ?faults ?(sanitize = false) ~shards () =
  let eng = Engine.create () in
  let cl =
    Cluster.create ?net ?msg_timeout_ns ?decision_poll_ns eng ~shards
      { (base_cfg ?faults ()) with Config.sanitize }
  in
  for k = 0 to shards - 1 do
    xfer_ddl k (Cluster.shard cl k)
  done;
  let proc = Cluster.register_proc cl insert_proc in
  (cl, proc)

let transfer cl proc ~home ~remote ~id ~acked =
  Cluster.submit_dtxn cl ~home
    ~on_done:(fun ~committed -> if committed then acked := true)
    (fun dtx ->
      ignore
        (Table.insert
           (Db.table (Cluster.shard cl home) "xfer")
           (Cluster.dtxn_txn dtx)
           [| Value.Int id; Value.Int 0 |]);
      ignore (Cluster.remote_exec cl dtx ~shard:remote ~proc ~args:[| Value.Int id; Value.Int 1 |]))

let has_row cl k id =
  let db = Cluster.shard cl k in
  Db.with_txn db (fun txn ->
      Table.index_lookup_first (Db.table db "xfer") txn ~index:"xfer_pk" ~key:[ Value.Int id ]
      <> None)

(* ------------------------------------------------------------------ *)

let test_happy_path () =
  let cl, proc = make_cluster ~shards:2 () in
  let acked = ref false in
  transfer cl proc ~home:0 ~remote:1 ~id:1 ~acked;
  Cluster.run cl;
  check_bool "acked" true !acked;
  check_bool "home row" true (has_row cl 0 1);
  check_bool "remote row" true (has_row cl 1 1);
  let s = Cluster.stats cl in
  check_int "one global txn" 1 s.Cluster.started;
  check_int "committed" 1 s.Cluster.committed;
  check_int "branch prepared" 1 s.Cluster.branches_prepared;
  check_int "branch committed" 1 s.Cluster.branches_committed

(* The coordinator's wait for a remote reply is a network round trip,
   not device I/O: holding a latch across [remote_exec] trips the
   sanitizer's park-while-latched rule. *)
let test_remote_exec_under_latch_caught () =
  Fun.protect ~finally:(fun () -> Sanitize.disable ()) @@ fun () ->
  let cl, proc = make_cluster ~sanitize:true ~shards:2 () in
  let l = Latch.create () in
  Cluster.submit_dtxn cl ~home:0 (fun dtx ->
      Latch.with_exclusive l (fun () ->
          ignore (Cluster.remote_exec cl dtx ~shard:1 ~proc ~args:[| Value.Int 1; Value.Int 1 |])));
  (match Cluster.run cl with
  | () -> Alcotest.fail "expected the sanitizer to raise"
  | exception Phoebe_util.Phoebe_error.Bug { subsystem; _ } ->
    Alcotest.(check string) "bug subsystem" "sanitize.park_latched" subsystem);
  check_bool "park_latched finding recorded" true
    (List.exists (fun (r, _) -> r = Sanitize.Park_latched) (Sanitize.findings ()))

let test_partition_timeout_then_heal () =
  let cl, proc = make_cluster ~shards:2 () in
  Cluster.set_partitioned cl ~shard:1 true;
  let acked = ref false in
  transfer cl proc ~home:0 ~remote:1 ~id:1 ~acked;
  Cluster.run cl;
  check_bool "not acked across a partition" false !acked;
  check_bool "home rolled back" false (has_row cl 0 1);
  check_bool "nothing on the partitioned shard" false (has_row cl 1 1);
  let s = Cluster.stats cl in
  check_int "exec timed out" 1 s.Cluster.exec_timeouts;
  (* heal: the same cluster must make progress again *)
  Cluster.set_partitioned cl ~shard:1 false;
  let acked2 = ref false in
  transfer cl proc ~home:0 ~remote:1 ~id:2 ~acked:acked2;
  Cluster.run cl;
  check_bool "acked after heal" true !acked2;
  check_bool "home row after heal" true (has_row cl 0 2);
  check_bool "remote row after heal" true (has_row cl 1 2)

let test_crash_in_decision_window () =
  (* Freeze the coordinator after every vote is in but before the
     decision is durable, then pull the plug: the branch is in-doubt,
     the coordinator's log holds no commit => presumed abort, and
     neither side keeps the transfer. *)
  let cl, proc = make_cluster ~shards:2 () in
  Cluster.set_hold_before_decide cl true;
  let acked = ref false in
  transfer cl proc ~home:0 ~remote:1 ~id:1 ~acked;
  Cluster.run_for cl ~ns:50_000_000;
  check_bool "never acked" false !acked;
  ignore (Cluster.crash cl);
  let cl', report = Cluster.recover cl ~ddl:xfer_ddl in
  check_int "one in-doubt branch" 1 report.Cluster.in_doubt_txns;
  check_int "presumed abort" 1 report.Cluster.in_doubt_aborted;
  check_bool "no home row" false (has_row cl' 0 1);
  check_bool "no remote row" false (has_row cl' 1 1)

let test_crash_after_ack_resolves_commit () =
  (* The decision is durable and acknowledged, but every decide message
     is suppressed: the participant dies prepared. Recovery must find
     the commit in the coordinator's log and apply the branch. *)
  let cl, proc =
    make_cluster ~shards:2 ~decision_poll_ns:10_000_000_000 (* no status rescue *) ()
  in
  Cluster.set_drop_decides cl true;
  let acked = ref false in
  transfer cl proc ~home:0 ~remote:1 ~id:1 ~acked;
  Cluster.run_for cl ~ns:50_000_000;
  check_bool "acked" true !acked;
  ignore (Cluster.crash cl);
  let cl', report = Cluster.recover cl ~ddl:xfer_ddl in
  check_int "one in-doubt branch" 1 report.Cluster.in_doubt_txns;
  check_int "resolved commit" 1 report.Cluster.in_doubt_committed;
  check_bool "home row survived" true (has_row cl' 0 1);
  check_bool "remote row recovered" true (has_row cl' 1 1)

let test_lost_decide_status_rescue () =
  (* Same suppression, no crash: the prepared branch's status poll must
     learn the decision from the coordinator and commit on its own. *)
  let cl, proc = make_cluster ~shards:2 ~decision_poll_ns:2_000_000 () in
  Cluster.set_drop_decides cl true;
  let acked = ref false in
  transfer cl proc ~home:0 ~remote:1 ~id:1 ~acked;
  Cluster.run_for cl ~ns:50_000_000;
  check_bool "acked" true !acked;
  check_bool "remote row via status poll" true (has_row cl 1 1);
  let s = Cluster.stats cl in
  check_bool "status polls happened" true (s.Cluster.status_polls >= 1);
  check_int "branch committed" 1 s.Cluster.branches_committed

(* ------------------------------------------------------------------ *)
(* 100-seed randomized atomicity property *)

let atomicity_trial ~seed =
  let rng = Prng.create ~seed in
  let shards = 2 + (seed mod 2) in
  let faults =
    if seed mod 4 = 0 then
      Some
        {
          Device.fault_seed = seed * 13;
          torn_write_p = 0.05;
          lost_ack_p = 0.05;
          delayed_ack_p = 0.1;
          max_delay_ns = 200_000;
        }
    else None
  in
  let net =
    { Net.default_config with Net.drop_p = (if seed mod 3 = 0 then 0.05 else 0.0); seed }
  in
  let cl, proc = make_cluster ~net ?faults ~shards () in
  if seed mod 5 = 0 then Cluster.set_drop_decides cl true;
  let n = 8 in
  let acked = Array.make n false in
  let homes = Array.make n 0 and remotes = Array.make n 0 in
  let eng = Cluster.engine cl in
  for i = 0 to n - 1 do
    let home = Prng.int rng shards in
    let remote = (home + 1 + Prng.int rng (shards - 1)) mod shards in
    homes.(i) <- home;
    remotes.(i) <- remote;
    let at = (i * 300_000) + Prng.int rng 300_000 in
    Engine.schedule eng ~delay:at (fun () ->
        try
          Cluster.submit_dtxn cl ~home
            ~on_done:(fun ~committed -> if committed then acked.(i) <- true)
            (fun dtx ->
              ignore
                (Table.insert
                   (Db.table (Cluster.shard cl home) "xfer")
                   (Cluster.dtxn_txn dtx)
                   [| Value.Int i; Value.Int 0 |]);
              ignore
                (Cluster.remote_exec cl dtx ~shard:remote ~proc ~args:[| Value.Int i; Value.Int 1 |]))
        with Db.Overloaded -> ())
  done;
  (* power loss at a random virtual-time point mid-protocol *)
  Cluster.run_for cl ~ns:(500_000 + Prng.int rng 8_000_000);
  let tear = if seed mod 3 = 1 then Some (Prng.create ~seed:(seed + 7)) else None in
  ignore (Cluster.crash ?tear cl);
  let cl', _report = Cluster.recover cl ~ddl:xfer_ddl in
  for i = 0 to n - 1 do
    let home_has = has_row cl' homes.(i) i in
    let remote_has = has_row cl' remotes.(i) i in
    (* durability: acknowledged => both sides present *)
    if acked.(i) && not (home_has && remote_has) then
      Alcotest.failf "seed %d: transfer %d acked but lost (home=%b remote=%b)" seed i home_has
        remote_has;
    (* atomicity: both sides or neither, acked or not *)
    if home_has <> remote_has then
      Alcotest.failf "seed %d: transfer %d half-applied (home=%b remote=%b)" seed i home_has
        remote_has
  done

let test_atomicity_property () =
  for seed = 1 to 100 do
    atomicity_trial ~seed
  done

let () =
  Alcotest.run "phoebe_shard"
    [
      ( "msg",
        [
          Alcotest.test_case "payload roundtrip" `Quick test_msg_roundtrip;
          Alcotest.test_case "netchan latency + FIFO" `Quick test_netchan_fifo;
        ] );
      ( "twopc",
        [
          Alcotest.test_case "happy path" `Quick test_happy_path;
          Alcotest.test_case "remote_exec under a latch caught" `Quick
            test_remote_exec_under_latch_caught;
          Alcotest.test_case "partition: timeout-abort, then heal" `Quick
            test_partition_timeout_then_heal;
          Alcotest.test_case "crash in the decision window" `Quick test_crash_in_decision_window;
          Alcotest.test_case "crash after ack resolves commit" `Quick
            test_crash_after_ack_resolves_commit;
          Alcotest.test_case "lost decide rescued by status poll" `Quick
            test_lost_decide_status_rescue;
        ] );
      ( "atomicity",
        [ Alcotest.test_case "100-seed cross-shard property" `Quick test_atomicity_property ] );
    ]
