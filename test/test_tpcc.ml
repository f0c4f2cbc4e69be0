(* TPC-C correctness tests: loader cardinalities, each transaction's
   effects, mix runs with consistency checks, recovery mid-benchmark,
   sharded TPC-C over a cluster, plus the baseline configurations. *)
open Phoebe_core
module T = Phoebe_tpcc.Tpcc
module B = Phoebe_baseline.Baseline
module Value = Phoebe_storage.Value
module Prng = Phoebe_util.Prng
module Wal = Phoebe_wal.Wal
module Engine = Phoebe_sim.Engine
module Cluster = Phoebe_shard.Cluster
module Open_loop = Phoebe_workload.Open_loop
module TS = Phoebe_tpcc.Tpcc_sharded

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_cfg = { Config.default with Config.n_workers = 2; slots_per_worker = 4 }

let tiny_scale =
  {
    T.districts_per_warehouse = 3;
    customers_per_district = 20;
    items = 100;
    initial_orders_per_district = 10;
  }

let make ?(warehouses = 2) ?(cfg = small_cfg) () =
  let db = Db.create cfg in
  (db, T.load db ~warehouses ~scale:tiny_scale ~seed:7 ())

let count_rows db name =
  let t = Db.table db name in
  Db.with_txn db (fun txn ->
      let n = ref 0 in
      Table.scan t txn (fun _ _ -> incr n);
      !n)

(* ------------------------------------------------------------------ *)
(* Loader *)

let test_load_cardinalities () =
  let db, _ = make () in
  check_int "warehouses" 2 (count_rows db "warehouse");
  check_int "districts" 6 (count_rows db "district");
  check_int "customers" 120 (count_rows db "customer");
  check_int "items" 100 (count_rows db "item");
  check_int "stock" 200 (count_rows db "stock");
  check_int "orders" 60 (count_rows db "orders");
  (* 30% of preloaded orders are undelivered *)
  check_int "neworders" 18 (count_rows db "neworder")

let test_load_consistency () =
  let _, t = make () in
  List.iter
    (fun (name, ok) -> check_bool ("initial " ^ name) true ok)
    (T.consistency_checks t)

(* ------------------------------------------------------------------ *)
(* Individual transactions *)

let district_next_o_id db ~w ~d =
  let district = Db.table db "district" in
  Db.with_txn db (fun txn ->
      match
        Table.index_lookup_first district txn ~index:"district_pk"
          ~key:[ Value.Int w; Value.Int d ]
      with
      | Some (_, row) -> ( match row.(5) with Value.Int v -> v | _ -> -1)
      | None -> -1)

let test_new_order_effects () =
  let db, t = make () in
  let before_no = district_next_o_id db ~w:1 ~d:1 in
  let before_orders = count_rows db "orders" in
  let rng = Prng.create ~seed:11 in
  (* several NewOrders; ~1% roll back by design, so tolerate Rollback *)
  let committed = ref 0 in
  for _ = 1 to 20 do
    try
      Db.with_txn db (fun txn -> T.new_order t txn rng ~w_id:1);
      incr committed
    with T.Rollback -> () | Phoebe_txn.Txnmgr.Abort _ -> ()
  done;
  check_bool "orders inserted" true (count_rows db "orders" >= before_orders + !committed);
  check_bool "next_o_id advanced" true (district_next_o_id db ~w:1 ~d:1 >= before_no);
  List.iter (fun (n, ok) -> check_bool n true ok) (T.consistency_checks t)

let test_payment_effects () =
  let db, t = make () in
  let before_hist = count_rows db "history" in
  let rng = Prng.create ~seed:13 in
  for _ = 1 to 20 do
    Db.with_txn db (fun txn -> T.payment t txn rng ~w_id:1)
  done;
  check_bool "history rows appended" true (count_rows db "history" > before_hist);
  List.iter (fun (n, ok) -> check_bool n true ok) (T.consistency_checks t)

let test_delivery_consumes_neworders () =
  let db, t = make () in
  let before = count_rows db "neworder" in
  let rng = Prng.create ~seed:17 in
  Db.with_txn db (fun txn -> T.delivery t txn rng ~w_id:1);
  check_bool "neworder rows consumed" true (count_rows db "neworder" < before);
  List.iter (fun (n, ok) -> check_bool n true ok) (T.consistency_checks t)

let test_order_status_and_stock_level_read_only () =
  let db, t = make () in
  let rng = Prng.create ~seed:19 in
  let before = count_rows db "orders" in
  for _ = 1 to 10 do
    Db.with_txn db (fun txn -> T.order_status t txn rng ~w_id:1);
    Db.with_txn db (fun txn -> T.stock_level t txn rng ~w_id:1)
  done;
  check_int "read-only: no new orders" before (count_rows db "orders")

let test_payment_by_name_is_deterministic_midpoint () =
  (* spec 2.5.2.2: customer selected by last name takes the midpoint of
     the first-name-ordered matches; repeated payments must hit real
     customers and append history rows every time *)
  let db, t = make () in
  let rng = Prng.create ~seed:23 in
  let before = count_rows db "history" in
  for _ = 1 to 30 do
    Db.with_txn db (fun txn -> T.payment t txn rng ~w_id:2)
  done;
  check_bool "payments landed" true (count_rows db "history" >= before + 25)

let test_new_order_rollback_rate () =
  (* spec 2.4.1.4: ~1% of NewOrders roll back on an unused item id; the
     rollback undoes the order/orderline/neworder inserts *)
  let db, t = make () in
  let rng = Prng.create ~seed:29 in
  let rollbacks = ref 0 and committed = ref 0 in
  for _ = 1 to 300 do
    try
      Db.with_txn db (fun txn -> T.new_order t txn rng ~w_id:1);
      incr committed
    with
    | T.Rollback -> incr rollbacks
    | Phoebe_txn.Txnmgr.Abort _ -> ()
  done;
  check_bool "some rollbacks occurred" true (!rollbacks >= 1);
  check_bool "rollback rate ~1%" true (!rollbacks < 15);
  (* every committed NewOrder left exactly one order: next_o_id - 31 =
     committed per district summed *)
  let orders = count_rows db "orders" in
  check_int "orders = preload + committed" (60 + !committed) orders;
  List.iter (fun (n, ok) -> check_bool n true ok) (T.consistency_checks t)

(* ------------------------------------------------------------------ *)
(* Mix runs *)

let test_mix_run_and_consistency () =
  let db, t = make () in
  let r = T.run_mix t ~concurrency:8 ~duration_ns:300_000_000 ~seed:3 () in
  check_bool "committed transactions" true (r.T.total_committed > 100);
  check_bool "tpmC positive" true (r.T.tpmc > 0.0);
  check_bool "NewOrder share roughly 45%" true
    (let share = float_of_int r.T.new_orders /. float_of_int r.T.total_committed in
     share > 0.30 && share < 0.60);
  ignore (Db.gc db);
  List.iter (fun (n, ok) -> check_bool ("post-run " ^ n) true ok) (T.consistency_checks t)

let test_mix_run_without_affinity () =
  let _, t = make () in
  let r = T.run_mix t ~affinity:false ~concurrency:8 ~duration_ns:200_000_000 ~seed:4 () in
  check_bool "committed" true (r.T.total_committed > 50);
  List.iter (fun (n, ok) -> check_bool n true ok) (T.consistency_checks t)

let test_throughput_series_nonempty () =
  let _, t = make () in
  ignore (T.run_mix t ~concurrency:4 ~duration_ns:2_000_000_000 ~seed:5 ());
  check_bool "series has samples" true (List.length (T.throughput_series t) >= 2)

(* A pool far below the working set: eviction, the cleaner and fault-in
   run all through the mix, and no update may be lost to them. At this
   point a stale cooling-queue entry once unswizzled re-faulted dirty
   pages and broke W_YTD = sum(D_YTD). *)
let test_mix_spilling_pool () =
  let cfg =
    { Config.default with Config.n_workers = 1; slots_per_worker = 8; buffer_bytes = 1024 * 1024 }
  in
  let db = Db.create cfg in
  let t = T.load db ~warehouses:1 ~scale:T.default_scale ~seed:42 () in
  ignore (T.run_mix t ~concurrency:8 ~duration_ns:500_000_000 ~seed:42 ());
  check_bool "the pool spilled" true ((Db.cleaner_stats db).Phoebe_storage.Bufmgr.clean_evicts > 0);
  List.iter (fun (n, ok) -> check_bool ("spilling " ^ n) true ok) (T.consistency_checks t)

let test_rfa_mostly_local_commits () =
  (* tuple-level RFA (paper 8): under the standard affine mix at
     realistic cardinalities, the majority of commits must be satisfied
     by the local WAL writer alone (hot-row rewrites across a worker's
     slots are the remaining remote dependencies) *)
  let cfg = { small_cfg with Config.n_workers = 4; slots_per_worker = 8 } in
  let db = Db.create cfg in
  let t = T.load db ~warehouses:4 ~scale:T.default_scale ~seed:7 () in
  ignore (T.run_mix t ~concurrency:32 ~duration_ns:200_000_000 ~seed:9 ());
  let s = Db.stats db in
  check_bool "RFA keeps most commits local" true
    (s.Db.rfa_local_commits > s.Db.rfa_remote_waits)

(* ------------------------------------------------------------------ *)
(* Recovery mid-benchmark *)

let test_recovery_after_mix () =
  let db1, t1 = make () in
  ignore (T.run_mix t1 ~concurrency:8 ~duration_ns:200_000_000 ~seed:6 ());
  Db.checkpoint db1;
  let db2 = Db.create small_cfg in
  (* identical DDL, no data: replay fills the tables *)
  ignore (T.load db2 ~load_data:false ~warehouses:2 ~scale:tiny_scale ~seed:7 ());
  let report = Db.replay_wal db2 ~from:(Wal.store (Db.wal db1)) in
  check_bool "replayed ops" true (report.Phoebe_wal.Recovery.ops_replayed > 100);
  List.iter
    (fun name -> check_int ("recovered rows: " ^ name) (count_rows db1 name) (count_rows db2 name))
    [ "warehouse"; "district"; "customer"; "orders"; "orderline"; "neworder"; "history" ]

(* ------------------------------------------------------------------ *)
(* Sharded TPC-C *)

let sharded ~shards ~wps =
  let cl = Cluster.create (Engine.create ()) ~shards small_cfg in
  (cl, TS.create cl ~scale:tiny_scale ~warehouses_per_shard:wps ~seed:7 ())

let run_open ts =
  TS.run_open ts ~shape:(Open_loop.Steady 4000.0) ~duration_ns:100_000_000 ~seed:3 ()

let shards_consistent cl ts =
  for k = 0 to Cluster.shards cl - 1 do
    List.iter
      (fun (n, ok) -> check_bool (Printf.sprintf "shard %d: %s" k n) true ok)
      (T.consistency_checks (TS.part ts k))
  done

let test_sharded_one_shard_stays_local () =
  (* a remote warehouse on the same shard is a plain local access *)
  let cl, ts = sharded ~shards:1 ~wps:2 in
  let r = run_open ts in
  check_bool "committed" true (r.TS.committed > 100);
  check_int "no statement shipped" 0 (TS.cross_shard_statements ts);
  check_int "no global transaction" 0 r.TS.cross_shard_started;
  shards_consistent cl ts

let test_sharded_two_shards_ship_statements () =
  let cl, ts = sharded ~shards:2 ~wps:1 in
  let r = run_open ts in
  check_bool "committed" true (r.TS.committed > 100);
  check_bool "statements shipped" true (TS.cross_shard_statements ts > 0);
  check_bool "global transactions committed" true (r.TS.cross_shard_committed > 0);
  shards_consistent cl ts

(* Payment history rows ([h_data] "payment") of one shard, as
   (h_c_w_id, h_w_id). *)
let payment_history db =
  Db.with_txn db (fun txn ->
      let rows = ref [] in
      Table.scan (Db.table db "history") txn (fun _ row ->
          match (row.(2), row.(4), row.(7)) with
          | Value.Int c_w, Value.Int h_w, Value.Str "payment" -> rows := (c_w, h_w) :: !rows
          | _ -> ());
      !rows)

let test_sharded_payment_history () =
  (* 2 shards x 2 warehouses; global warehouse 3 is shard 1's local 1.
     A customer of global warehouse 1 (shard 0) picked by last name gets
     exactly one history row on shard 0, naming the paying warehouse by
     its global id. *)
  let cl, ts = sharded ~shards:2 ~wps:2 in
  let shard0 = Cluster.shard cl 0 in
  let last =
    Db.with_txn shard0 (fun txn ->
        match
          Table.index_lookup_first (Db.table shard0 "customer") txn ~index:"customer_pk"
            ~key:[ Value.Int 1; Value.Int 1; Value.Int 1 ]
        with
        | Some (_, row) -> ( match row.(4) with Value.Str s -> s | _ -> Alcotest.fail "c_last")
        | None -> Alcotest.fail "customer (1, 1, 1) missing")
  in
  Cluster.submit_dtxn cl ~home:1 (fun dtx ->
      let at = TS.placement ts dtx ~home_g:3 in
      check_bool "warehouse 1 is not on shard 1" true (at.T.local 1 = None);
      ignore
        (at.T.remote 1
           (T.Pay_customer { d_id = 1; customer = T.By_name last; amount = 12.5; h_d_id = 2; h_w_id = 3 })));
  Cluster.run cl;
  check_int "one statement shipped" 1 (TS.cross_shard_statements ts);
  check_int "global transaction committed" 1 (Cluster.stats cl).Cluster.committed;
  Alcotest.(check (list (pair int int))) "one history row on shard 0" [ (1, 3) ] (payment_history shard0);
  check_int "none on the paying shard" 0 (List.length (payment_history (Cluster.shard cl 1)));
  (* real Payments homed at global 3: every history row, local or
     shipped, carries H_W_ID 3 *)
  let rng = Prng.create ~seed:31 in
  for _ = 1 to 100 do
    Cluster.submit_dtxn cl ~home:1 (fun dtx -> TS.payment ts dtx rng ~home_g:3)
  done;
  Cluster.run cl;
  let rows = payment_history shard0 @ payment_history (Cluster.shard cl 1) in
  check_int "every Payment landed one row" 101 (List.length rows);
  check_bool "H_W_ID is the home's global id" true (List.for_all (fun (_, h_w) -> h_w = 3) rows);
  check_int "shipped rows = statements shipped"
    (TS.cross_shard_statements ts)
    (List.length (payment_history shard0));
  shards_consistent cl ts

let test_stmt_wire_round_trip () =
  List.iter
    (fun (w_id, stmt) ->
      check_bool "decode (encode stmt) = stmt" true (TS.decode_stmt (TS.encode_stmt ~w_id stmt) = (w_id, stmt)))
    [
      (2, T.Stock_line { i_id = 77; qty = 9 });
      (1, T.Pay_customer { d_id = 3; customer = T.By_name "BARPRIESE"; amount = 4321.09; h_d_id = 2; h_w_id = 5 });
      (4, T.Pay_customer { d_id = 1; customer = T.By_id 17; amount = 1.0; h_d_id = 1; h_w_id = 1 });
    ];
  check_bool "malformed array rejected" true
    (match TS.decode_stmt [| Value.Int 1 |] with _ -> false | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Baselines *)

let test_pg_like_slower_than_phoebe () =
  let run cfg =
    let db = Db.create cfg in
    let t = T.load db ~warehouses:2 ~scale:tiny_scale ~seed:7 () in
    let r = T.run_mix t ~concurrency:8 ~duration_ns:200_000_000 ~seed:3 () in
    r.T.tpm_total
  in
  let phoebe = run { Config.default with Config.n_workers = 4; slots_per_worker = 2 } in
  let pg = run (B.pg_like ~workers:8 ()) in
  check_bool "phoebe faster than pg-like" true (phoebe > pg *. 1.5);
  check_bool "pg-like still works" true (pg > 0.0)

let test_baseline_configs_wellformed () =
  let pg = B.pg_like () in
  check_bool "pg thread model" true (pg.Config.model = Phoebe_runtime.Scheduler.Thread);
  check_bool "pg scans snapshots" true (pg.Config.snapshot_mode = Phoebe_txn.Txnmgr.Scan_active);
  check_bool "pg single wal writer" true pg.Config.wal.Wal.single_writer;
  check_bool "pg no rfa" true (not pg.Config.wal.Wal.rfa);
  let odb = B.odb_like () in
  check_bool "odb device is slower than pm9a3" true
    (odb.Config.data_device.Phoebe_io.Device.read_mb_s
    < Phoebe_io.Device.pm9a3.Phoebe_io.Device.read_mb_s)

let () =
  Alcotest.run "phoebe_tpcc"
    [
      ( "load",
        [
          Alcotest.test_case "cardinalities" `Quick test_load_cardinalities;
          Alcotest.test_case "initial consistency" `Quick test_load_consistency;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "new order" `Quick test_new_order_effects;
          Alcotest.test_case "payment" `Quick test_payment_effects;
          Alcotest.test_case "delivery" `Quick test_delivery_consumes_neworders;
          Alcotest.test_case "read-only txns" `Quick test_order_status_and_stock_level_read_only;
          Alcotest.test_case "payment by name" `Quick test_payment_by_name_is_deterministic_midpoint;
          Alcotest.test_case "rollback rate" `Quick test_new_order_rollback_rate;
        ] );
      ( "mix",
        [
          Alcotest.test_case "run + consistency" `Quick test_mix_run_and_consistency;
          Alcotest.test_case "no affinity" `Quick test_mix_run_without_affinity;
          Alcotest.test_case "throughput series" `Quick test_throughput_series_nonempty;
          Alcotest.test_case "spilling 1 MB pool" `Quick test_mix_spilling_pool;
        ] );
      ("recovery", [ Alcotest.test_case "after mix" `Quick test_recovery_after_mix ]);
      ( "sharded",
        [
          Alcotest.test_case "one shard stays local" `Quick test_sharded_one_shard_stays_local;
          Alcotest.test_case "two shards ship statements" `Quick test_sharded_two_shards_ship_statements;
          Alcotest.test_case "payment history" `Quick test_sharded_payment_history;
          Alcotest.test_case "statement wire round trip" `Quick test_stmt_wire_round_trip;
        ] );
      ("rfa", [ Alcotest.test_case "mostly local commits" `Quick test_rfa_mostly_local_commits ]);
      ( "baseline",
        [
          Alcotest.test_case "pg-like slower" `Quick test_pg_like_slower_than_phoebe;
          Alcotest.test_case "configs well-formed" `Quick test_baseline_configs_wellformed;
        ] );
    ]
