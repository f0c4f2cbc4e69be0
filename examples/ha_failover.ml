(* High availability with quorum replication (the paper's future-work
   item 2): a three-node group — one primary, two replicas — where a
   commit is acknowledged only once a majority of the group holds it
   durably. The primary is then killed mid-run; the surviving replicas
   detect the silence, elect the one with the longest durable stream
   prefix, and the group keeps serving with every acknowledged commit
   intact. Replicas also serve bounded-staleness reads.

   Run with: dune exec examples/ha_failover.exe *)
open Phoebe_core
module Quorum = Phoebe_replication.Quorum
module Value = Phoebe_storage.Value

let () =
  print_endline "== quorum replication with automated failover ==";
  let cfg = { Config.default with Config.n_workers = 4; slots_per_worker = 8 } in
  let ddl db =
    let t =
      Db.create_table db ~name:"orders"
        ~schema:[ ("customer", Value.T_int); ("total", Value.T_float); ("status", Value.T_str) ]
    in
    Db.create_index db t ~name:"orders_by_customer" ~cols:[ "customer" ] ~unique:false
  in
  let q = Quorum.create cfg ~ddl in
  Printf.printf "group: %d nodes, majority %d, node 0 primary of view %d\n" (Quorum.nodes q)
    ((Quorum.nodes q / 2) + 1) (Quorum.view q);

  let count db =
    let t = Db.table db "orders" in
    Db.with_txn db (fun txn ->
        let n = ref 0 in
        Table.scan t txn (fun _ _ -> incr n);
        !n)
  in
  let rng = Phoebe_util.Prng.create ~seed:12 in
  let acked = ref 0 in
  let submit db n =
    for _ = 1 to n do
      Db.submit db
        ~on_done:(fun () -> incr acked)
        (fun txn ->
          ignore
            (Table.insert (Db.table db "orders") txn
               [|
                 Value.Int (Phoebe_util.Prng.int rng 50);
                 Value.Float (float_of_int (Phoebe_util.Prng.int rng 10_000) /. 100.0);
                 Value.Str "placed";
               |]))
    done
  in
  let prim = Option.get (Quorum.primary_db q) in
  submit prim 500;
  Quorum.run_for q ~ns:80_000_000;
  Printf.printf "primary served %d quorum-acknowledged commits; replicas mirror %d / %d rows\n"
    !acked
    (count (Quorum.db q ~node:1))
    (count prim);

  (* a replica serves reads within the staleness bound *)
  let fresh =
    Quorum.follower_read q ~node:1 (fun txn ->
        let t = Db.table (Quorum.db q ~node:1) "orders" in
        let n = ref 0 in
        Table.scan t txn (fun _ _ -> incr n);
        !n)
  in
  Printf.printf "follower read on node 1 (staleness %.1f us): %d rows\n"
    (float_of_int (Quorum.staleness_ns q ~node:1) /. 1e3)
    fresh;

  (* ---- the primary dies; nobody presses any buttons ---- *)
  print_endline "\n-- killing the primary: the group elects a successor on its own --";
  Quorum.kill q ~node:0;
  Quorum.run_for q ~ns:40_000_000;
  let p = Option.get (Quorum.primary q) in
  Printf.printf "node %d won the view-%d election with the longest durable prefix\n" p
    (Quorum.view q);
  Printf.printf "new primary holds %d rows (every acknowledged commit survived)\n"
    (count (Quorum.db q ~node:p));

  (* the new primary accepts quorum-replicated writes immediately *)
  let before = !acked in
  submit (Quorum.db q ~node:p) 50;
  Quorum.run_for q ~ns:40_000_000;
  Printf.printf "new primary acknowledged %d more commits in view %d; group is healthy\n"
    (!acked - before) (Quorum.view q);
  Quorum.shutdown q
