(* Tests for the columnar analytics operators: agreement with row-wise
   scans across tier mixes, MVCC correctness against uncommitted and
   post-snapshot writers, and null/delete handling. *)
open Phoebe_core
module A = Phoebe_analytics.Analytics
module Value = Phoebe_storage.Value
module Txnmgr = Phoebe_txn.Txnmgr
module Scheduler = Phoebe_runtime.Scheduler
module Prng = Phoebe_util.Prng

(* A blind write of one named column through the index-based update. *)
let set_col t txn ~rid name v =
  let c = Table.col t name in
  Table.update ~reads:[||] t txn ~rid (fun _ -> [| (c, v) |])

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

let cfg = { Config.default with Config.n_workers = 2; slots_per_worker = 4 }

let make_events ?(rows = 2000) ?(freeze = true) () =
  let db = Db.create cfg in
  let t =
    Db.create_table db ~name:"events"
      ~schema:[ ("k", Value.T_int); ("amount", Value.T_float); ("kind", Value.T_str) ]
  in
  let rng = Prng.create ~seed:8 in
  Db.with_txn db (fun txn ->
      for k = 1 to rows do
        ignore
          (Table.insert t txn
             [|
               Value.Int k;
               (if k mod 37 = 0 then Value.Null
                else Value.Float (float_of_int (Prng.int rng 1000) /. 10.0));
               Value.Str (Printf.sprintf "kind-%d" (k mod 4));
             |])
      done);
  if freeze then begin
    for _ = 1 to 8 do
      Phoebe_btree.Table_tree.decay_access_counts (Table.tree t)
    done;
    ignore (Db.freeze_tables db)
  end;
  (db, t)

(* row-wise oracle through the ordinary MVCC scan *)
let oracle db t txn col =
  let schema = Table.schema t in
  let c = Value.Schema.column_index schema col in
  ignore db;
  let count = ref 0 and sum = ref 0.0 and mn = ref Float.nan and mx = ref Float.nan in
  Table.scan t txn (fun _ row ->
      match row.(c) with
      | Value.Int i -> failwith (string_of_int i)
      | Value.Float x ->
        incr count;
        sum := !sum +. x;
        if !count = 1 then begin
          mn := x;
          mx := x
        end
        else begin
          mn := Float.min !mn x;
          mx := Float.max !mx x
        end
      | _ -> ());
  (!count, !sum, !mn, !mx)

let agree db t =
  Db.with_txn db (fun txn ->
      let a = A.aggregate_column db t txn ~col:"amount" in
      let count, sum, mn, mx = oracle db t txn "amount" in
      check_int "count" count a.A.count;
      check_float "sum" sum a.A.sum;
      check_float "min" mn a.A.min;
      check_float "max" mx a.A.max)

let test_agreement_frozen () =
  let db, t = make_events () in
  check_bool "data frozen" true (A.tier_rows db t ~frozen:true > 1000);
  agree db t

let test_agreement_hot_only () =
  let db, t = make_events ~freeze:false () in
  check_int "nothing frozen" 0 (A.tier_rows db t ~frozen:true);
  agree db t

let test_agreement_after_mutations () =
  let db, t = make_events () in
  let rng = Prng.create ~seed:9 in
  (* update and delete across both tiers, then re-check *)
  for _ = 1 to 150 do
    let rid = 1 + Prng.int rng 2000 in
    if Prng.int rng 5 = 0 then ignore (Db.with_txn db (fun txn -> Table.delete t txn ~rid))
    else
      ignore
        (Db.with_txn db (fun txn ->
             set_col t txn ~rid "amount" (Value.Float (float_of_int (Prng.int rng 100)))))
  done;
  agree db t;
  ignore (Db.gc db);
  agree db t

let test_uncommitted_writer_invisible () =
  let db, t = make_events ~rows:400 () in
  let q = Scheduler.Waitq.create () in
  let observed = ref (-1.0) in
  let baseline = Db.with_txn db (fun txn -> (A.aggregate_column db t txn ~col:"amount").A.sum) in
  (* writer holds an enormous uncommitted update *)
  Db.submit db (fun txn ->
      ignore (set_col t txn ~rid:5 "amount" (Value.Float 1_000_000.0));
      Scheduler.Waitq.wait q);
  Scheduler.submit (Db.scheduler db) (fun () ->
      Scheduler.charge Phoebe_sim.Component.Effective 100_000;
      Db.with_txn db (fun txn ->
          observed := (A.aggregate_column db t txn ~col:"amount").A.sum);
      Scheduler.Waitq.signal_all q);
  Db.run db;
  check_float "uncommitted update not aggregated" baseline !observed

let test_group_count () =
  let db, t = make_events ~rows:400 () in
  Db.with_txn db (fun txn ->
      let groups = A.group_count db t txn ~col:"kind" in
      check_int "four kinds" 4 (List.length groups);
      check_int "total rows" 400 (List.fold_left (fun acc (_, n) -> acc + n) 0 groups);
      List.iter (fun (_, n) -> check_int "even split" 100 n) groups)

let test_group_count_respects_deletes () =
  let db, t = make_events ~rows:400 () in
  (* delete every kind-0 row (k mod 4 = 0 => kind-0) *)
  Db.with_txn db (fun txn ->
      let victims = ref [] in
      Table.scan t txn (fun rid row -> if row.(2) = Value.Str "kind-0" then victims := rid :: !victims);
      List.iter (fun rid -> ignore (Table.delete t txn ~rid)) !victims);
  Db.with_txn db (fun txn ->
      let groups = A.group_count db t txn ~col:"kind" in
      check_bool "kind-0 gone" true (not (List.mem_assoc (Value.Str "kind-0") groups));
      check_int "three kinds left" 3 (List.length groups))

let () =
  Alcotest.run "phoebe_analytics"
    [
      ( "aggregate",
        [
          Alcotest.test_case "frozen + hot agreement" `Quick test_agreement_frozen;
          Alcotest.test_case "hot only" `Quick test_agreement_hot_only;
          Alcotest.test_case "after mutations + gc" `Quick test_agreement_after_mutations;
          Alcotest.test_case "uncommitted invisible" `Quick test_uncommitted_writer_invisible;
        ] );
      ( "group",
        [
          Alcotest.test_case "group count" `Quick test_group_count;
          Alcotest.test_case "respects deletes" `Quick test_group_count_respects_deletes;
        ] );
    ]
