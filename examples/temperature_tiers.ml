(* Temperature tiers: the hot / cold / frozen storage lifecycle (paper
   §5.2). Loads an append-mostly event table, lets the old prefix go
   cold, freezes it into compressed blocks, and shows that reads,
   updates and scans work transparently across tiers — updates of frozen
   rows go out-of-place back into hot storage.

   Run with: dune exec examples/temperature_tiers.exe *)
open Phoebe_core
module Value = Phoebe_storage.Value
module Table_tree = Phoebe_btree.Table_tree
module Bufmgr = Phoebe_storage.Bufmgr

let n_events = 20_000

let () =
  print_endline "== temperature tiers: hot / cold / frozen ==";
  let cfg =
    { Config.default with Config.n_workers = 2; slots_per_worker = 8; buffer_bytes = 512 * 1024 }
  in
  let db = Db.create cfg in
  let events =
    Db.create_table db ~name:"events"
      ~schema:
        [ ("ts", Value.T_int); ("device", Value.T_int); ("kind", Value.T_str); ("reading", Value.T_float) ]
  in
  Db.create_index db events ~name:"events_by_device" ~cols:[ "device"; "ts" ] ~unique:true;

  (* Time-series-style load: low-cardinality kind column compresses well. *)
  let kinds = [| "temp"; "humidity"; "vibration" |] in
  let rng = Phoebe_util.Prng.create ~seed:5 in
  let chunk = 500 in
  let k = ref 0 in
  while !k < n_events do
    Db.with_txn db (fun txn ->
        for _ = 1 to min chunk (n_events - !k) do
          incr k;
          ignore
            (Table.insert events txn
               [|
                 Value.Int !k;
                 Value.Int (!k mod 50);
                 Value.Str kinds.(!k mod 3);
                 Value.Float (float_of_int (Phoebe_util.Prng.int rng 1000) /. 10.0);
               |])
        done)
  done;
  let tree = Table.tree events in
  Printf.printf "loaded %d events into %d PAX leaves (buffer resident: %d KB of %d KB budget)\n"
    n_events (Table_tree.leaf_count tree)
    (Bufmgr.resident_bytes (Db.buffer db) / 1024)
    (cfg.Config.buffer_bytes / 1024);

  (* The tiny buffer forces most leaves to the Data Page File (cold);
     eviction spares recently-touched frames, so let a little virtual
     time pass first. *)
  Db.run_for db ~ns:2_000_000;
  Bufmgr.maintain (Db.buffer db) ~partition:0;
  Bufmgr.maintain (Db.buffer db) ~partition:1;
  Bufmgr.maintain (Db.buffer db) ~partition:0;
  Bufmgr.maintain (Db.buffer db) ~partition:1;
  Printf.printf "after eviction: %d KB resident, %d pages in the Data Page File\n"
    (Bufmgr.resident_bytes (Db.buffer db) / 1024)
    (Phoebe_io.Pagestore.page_count (Bufmgr.store (Db.buffer db)));

  (* Keep recent events hot, then freeze the cold historical prefix. *)
  for _ = 1 to 8 do
    Table_tree.decay_access_counts tree
  done;
  for _ = 1 to 200 do
    ignore
      (Db.with_txn db (fun txn ->
           Table.get events txn ~rid:(n_events - Phoebe_util.Prng.int rng 500)))
  done;
  let frozen = Db.freeze_tables db in
  Printf.printf "froze %d tuples into %d compressed blocks (compression ratio %.1fx)\n" frozen
    (Table_tree.frozen_block_count tree)
    (Table_tree.compression_ratio tree);
  Printf.printf "max_frozen_row_id = %d of %d\n" (Table_tree.max_frozen_row_id tree) n_events;

  (* Reads hit the frozen tier transparently. *)
  Db.with_txn db (fun txn ->
      match Table.get events txn ~rid:10 with
      | Some row ->
        Printf.printf "frozen read rid=10: ts=%s kind=%s reading=%s\n"
          (Value.to_string row.(0)) (Value.to_string row.(2)) (Value.to_string row.(3))
      | None -> print_endline "frozen read failed?!");

  (* Updating a frozen row: out-of-place — the frozen copy is
     delete-marked and the new version re-inserted into hot storage. *)
  let live_before = Table_tree.tuple_count_estimate tree in
  let updated =
    Db.with_txn db (fun txn ->
        Table.update ~reads:[||] events txn ~rid:10 (fun _ ->
            [| (Table.col events "kind", Value.Str "corrected") |]))
  in
  Printf.printf "frozen update rid=10: %b (live tuples %d -> %d; the row moved to hot storage)\n"
    updated live_before (Table_tree.tuple_count_estimate tree);

  (* Scans cross all three tiers in row-id order and see the update. *)
  Db.with_txn db (fun txn ->
      let total = ref 0 and corrected = ref 0 in
      Table.scan events txn (fun _ row ->
          incr total;
          if row.(2) = Value.Str "corrected" then incr corrected);
      Printf.printf "scan across tiers: %d live rows, %d corrected\n" !total !corrected);

  let s = Db.stats db in
  Printf.printf "device traffic: data read %d KB, written %d KB; blocks written %d KB\n"
    (Phoebe_io.Device.total_bytes (Db.data_device db) Phoebe_io.Device.Read / 1024)
    (Phoebe_io.Device.total_bytes (Db.data_device db) Phoebe_io.Device.Write / 1024)
    (s.Db.wal_bytes / 1024)
