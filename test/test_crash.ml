(* Randomized crash-recovery properties: power loss at an arbitrary
   virtual-time point mid-workload, with optional sector tearing of the
   last in-flight WAL write, device fault injection and mid-run
   checkpoints. A recording oracle tracks what each transaction did and
   whether its commit was acknowledged; after [Db.crash] +
   [Checkpoint.restore] the restored state must show

   - durability: every acknowledged transaction's effects are present
     exactly as written, and
   - atomicity: every transaction is all-or-nothing — no restored state
     may contain some but not all of a transaction's operations. *)
open Phoebe_core
module Value = Phoebe_storage.Value
module Prng = Phoebe_util.Prng
module Device = Phoebe_io.Device

(* Every index of every table of [db] is structurally sound
   ([Table.verify_indexes]). *)
let check_indexes db =
  match List.concat_map Table.verify_indexes (Db.tables db) with
  | [] -> ()
  | fs ->
    let module Index_tree = Phoebe_btree.Index_tree in
    Alcotest.failf "index findings: %s"
      (String.concat "; " (List.map (fun f -> Index_tree.rule_name f.Index_tree.rule ^ ": " ^ f.Index_tree.detail) fs))

(* [Checkpoint.restore], with the restored indexes checked. *)
let restore ~from ~snapshot cfg =
  let ((db, _) as restored) = Checkpoint.restore ~from ~snapshot cfg in
  check_indexes db;
  restored

(* A blind write of one named column through the index-based update. *)
let set_col t txn ~rid name v =
  let c = Table.col t name in
  Table.update ~reads:[||] t txn ~rid (fun _ -> [| (c, v) |])

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

type op = Upd of { k : int; v : int } | Ins of { k : int; v : int }

type txn_record = {
  ops : op list;
  mutable body_done : bool;  (** set LAST in the body — commit cannot fail after it *)
  mutable acked : bool;  (** on_done fired after a completed body *)
}

let n_base = 40

let base_cfg ~small_buffer ~faults =
  let cfg = { Config.default with Config.n_workers = 2; slots_per_worker = 4; faults } in
  if small_buffer then
    (* tiny pool: constant eviction and cleaner traffic, so crashes land
       on stolen (sanitized) page flushes too *)
    {
      cfg with
      Config.buffer_bytes = 12_288;
      leaf_capacity = 8;
      cleaner =
        {
          Phoebe_storage.Bufmgr.cl_enabled = true;
          Phoebe_storage.Bufmgr.cl_batch_pages = 8;
        };
    }
  else cfg

let kv_ddl db =
  let t = Db.create_table db ~name:"kv" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
  Db.create_index db t ~name:"kv_pk" ~cols:[ "k" ] ~unique:true;
  t

let dump db t =
  Db.with_txn db (fun txn ->
      let acc = ref [] in
      Table.scan t txn (fun _ row ->
          match (row.(0), row.(1)) with
          | Value.Int k, Value.Int v -> acc := (k, v) :: !acc
          | _ -> ());
      !acc)

(* Each transaction updates its own distinct base row (so update
   outcomes are checkable independently of interleaving) and inserts
   fresh globally-unique keys. [n_base] exceeds the maximum transaction
   count, so no two transactions ever touch the same row. *)
let make_txn_plan rng i =
  let upd = Upd { k = 1 + i; v = 10_000 + i } in
  let n_ins = Prng.int rng 3 in
  let ins = List.init n_ins (fun j -> Ins { k = 1_000 + (i * 10) + j; v = i }) in
  { ops = upd :: ins; body_done = false; acked = false }

let submit_plan db t (plan : txn_record) =
  Db.submit db
    ~on_done:(fun () -> if plan.body_done then plan.acked <- true)
    (fun txn ->
      plan.body_done <- false;
      (* re-resolve on every (re)try: the body may rerun after an abort *)
      List.iter
        (fun op ->
          match op with
          | Upd { k; v } -> (
            match Table.index_lookup_first t txn ~index:"kv_pk" ~key:(Table.key t txn |> Table.Key.add (Value.Int k)) with
            | 0 -> Alcotest.failf "base row %d missing" k
            | rid -> ignore (set_col t txn ~rid "v" (Value.Int v)))
          | Ins { k; v } -> ignore (Table.insert t txn [| Value.Int k; Value.Int v |]))
        plan.ops;
      plan.body_done <- true)

let check_recovered ~seed plans rows =
  let by_key = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace by_key k v) rows;
  let op_present = function
    | Upd { k; v } -> Hashtbl.find_opt by_key k = Some v
    | Ins { k; v } -> Hashtbl.find_opt by_key k = Some v
  in
  List.iteri
    (fun i plan ->
      let present = List.map op_present plan.ops in
      (* durability: acked => every op present *)
      if plan.acked && not (List.for_all Fun.id present) then begin
        List.iteri
          (fun j ok ->
            if not ok then
              match List.nth plan.ops j with
              | Upd { k; v } ->
                Printf.printf "  lost Upd k=%d v=%d (have %s)\n%!" k v
                  (match Hashtbl.find_opt by_key k with Some x -> string_of_int x | None -> "none")
              | Ins { k; v } ->
                Printf.printf "  lost Ins k=%d v=%d (have %s)\n%!" k v
                  (match Hashtbl.find_opt by_key k with Some x -> string_of_int x | None -> "none"))
          present;
        Alcotest.failf "seed %d txn %d: acked but effects lost" seed i
      end;
      (* atomicity over the verifiable ops: inserts are all-or-nothing.
         (The update is excluded: "absent" just means the base row kept
         an older value, which a lost unacked update legitimately does.) *)
      let ins_present =
        List.filteri (fun j _ -> j > 0) present (* ops = update :: inserts *)
      in
      match ins_present with
      | [] -> ()
      | first :: rest ->
        if not (List.for_all (( = ) first) rest) then
          Alcotest.failf "seed %d txn %d: partial transaction survived" seed i)
    plans;
  (* base rows themselves must all exist, with either the initial value
     or some transaction's exact update *)
  for k = 1 to n_base do
    match Hashtbl.find_opt by_key k with
    | Some v when v = 0 || v >= 10_000 -> ()
    | Some v -> Alcotest.failf "seed %d: base row %d has impossible value %d" seed k v
    | None -> Alcotest.failf "seed %d: base row %d vanished" seed k
  done

let crash_trial ~seed =
  let rng = Prng.create ~seed in
  let small_buffer = seed mod 2 = 0 in
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
  let cfg = base_cfg ~small_buffer ~faults in
  let db = Db.create cfg in
  let t = kv_ddl db in
  Db.with_txn db (fun txn ->
      for k = 1 to n_base do
        ignore (Table.insert t txn [| Value.Int k; Value.Int 0 |])
      done);
  let snapshot = ref (Checkpoint.take db) in
  let n_txns = 20 + Prng.int rng 20 in
  let plans = List.init n_txns (fun i -> make_txn_plan rng i) in
  let first, second =
    let mid = n_txns / 2 in
    (List.filteri (fun i _ -> i < mid) plans, List.filteri (fun i _ -> i >= mid) plans)
  in
  List.iter (submit_plan db t) first;
  if seed mod 5 = 0 then begin
    (* mid-run checkpoint: quiesce, take a fresh snapshot, keep going *)
    Db.run db;
    snapshot := Checkpoint.take db
  end;
  List.iter (submit_plan db t) second;
  (* power loss at a random virtual-time point *)
  Db.run_for db ~ns:(100_000 + Prng.int rng 5_000_000);
  let tear = if seed mod 3 = 0 then Some (Prng.create ~seed:(seed + 7)) else None in
  let report = Db.crash ?tear db in
  check_bool "crash truncates to the durable frontier" true
    (List.for_all (fun (_, survive, lost) -> survive >= 0 && lost >= 0) report.Db.wal_files);
  (* restore without fault injection: verification reads must be clean *)
  let db2, _ = restore ~from:db ~snapshot:!snapshot (base_cfg ~small_buffer ~faults:None) in
  check_recovered ~seed plans (dump db2 (Db.table db2 "kv"))

let test_crash_recovery_property () =
  for seed = 1 to 100 do
    if Sys.getenv_opt "CRASH_VERBOSE" <> None then Printf.printf "seed %d\n%!" seed;
    crash_trial ~seed
  done

(* Crash after the WAL flush of [Db.checkpoint] but before a new catalog
   image is written: the previous snapshot stays the recovery point and
   the whole post-snapshot suffix replays from the (now fully durable)
   WAL. *)
let test_crash_between_wal_flush_and_image () =
  let cfg = base_cfg ~small_buffer:false ~faults:None in
  let db = Db.create cfg in
  let t = kv_ddl db in
  Db.with_txn db (fun txn ->
      for k = 1 to n_base do
        ignore (Table.insert t txn [| Value.Int k; Value.Int 0 |])
      done);
  let snapshot1 = Checkpoint.take db in
  for i = 1 to 25 do
    ignore
      (Db.with_txn db (fun txn -> ignore (Table.insert t txn [| Value.Int (500 + i); Value.Int i |])))
  done;
  (* the checkpoint's quiesce + WAL flush ran; power fails before the
     harness takes (or persists) the next snapshot *)
  Db.checkpoint db;
  let report = Db.crash db in
  check_int "WAL fully durable at the cut" 0 (Db.wal_lost_bytes report);
  let db2, rep = restore ~from:db ~snapshot:snapshot1 cfg in
  check_bool "suffix came back through replay" true (rep.Phoebe_wal.Recovery.ops_replayed >= 25);
  let rows = dump db2 (Db.table db2 "kv") in
  check_int "all rows present" (n_base + 25) (List.length rows);
  for i = 1 to 25 do
    check_bool "post-snapshot insert survived" true (List.mem (500 + i, i) rows)
  done

let () =
  Alcotest.run "phoebe_crash"
    [
      ( "crash-recovery",
        [
          Alcotest.test_case "100-seed property" `Quick test_crash_recovery_property;
          Alcotest.test_case "crash during checkpoint" `Quick test_crash_between_wal_flush_and_image;
        ] );
    ]
