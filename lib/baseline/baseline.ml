module Config = Phoebe_core.Config
module Cost = Phoebe_sim.Cost
module Scheduler = Phoebe_runtime.Scheduler
module Txnmgr = Phoebe_txn.Txnmgr
module Wal = Phoebe_wal.Wal
module Device = Phoebe_io.Device

(* PostgreSQL-style per-operation instruction counts: the same logical
   operations pay general-purpose-executor overheads — heap tuple
   deforming, buffer pins through a global hash table, lock-manager
   hash probes, executor node dispatch. Factors follow the
   "OLTP through the looking glass" style breakdowns (paper [39]):
   roughly 3-4x on the hot paths. *)
let pg_cost =
  {
    Cost.default with
    Cost.btree_search_per_level = 1400;
    btree_leaf_op = 5250;
    latch_acquire = 450;
    pax_read = 4750;  (* heap_deform_tuple etc. *)
    pax_write_per_col = 1625;
    buffer_hit = 1300;  (* shared-buffers hash probe + pin/unpin *)
    buffer_miss = 13000;
    undo_create = 2250;  (* heap versioning: whole-row copies *)
    undo_apply = 1750;
    visibility_check = 1050;  (* HeapTupleSatisfiesMVCC with clog lookups *)
    snapshot_acquire = 1500;
    snapshot_scan_per_txn = 300;
    commit_stamp_per_undo = 225;
    tuple_lock = 1500;
    txnid_lock = 2250;
    global_lock_table = 4000;
    wal_record_base = 1200;
    wal_commit = 1750;
    txn_begin = 3500;
    txn_finalize = 4000;
    gc_per_undo = 1000;  (* vacuum-style cleanup *)
    app_logic_per_stmt = 15000;  (* SQL parse/plan/executor per statement *)
  }

let pg_like ?(workers = 100) ?(buffer_bytes = 256 * 1024 * 1024) () =
  {
    Config.default with
    Config.n_workers = workers;
    slots_per_worker = 1;  (* one transaction per backend process *)
    model = Scheduler.Thread;
    cost = pg_cost;
    buffer_bytes;
    snapshot_mode = Txnmgr.Scan_active;
    lock_style = Config.Global_serialized { lock_hold_ns = 700; snapshot_hold_ns = 1400 };
    wal = { Wal.rfa = false; single_writer = true };
  }

(* The commercial engine: a well-optimized buffer-pool architecture,
   noticeably leaner than PostgreSQL per operation but still paying the
   central-buffer-pool and heavyweight-latching taxes, and — the point
   of Exp 9 — bound by its storage subsystem's bandwidth envelope. *)
let odb_cost =
  {
    Cost.default with
    Cost.btree_search_per_level = 700;
    btree_leaf_op = 2500;
    pax_read = 2250;
    buffer_hit = 650;
    buffer_miss = 9500;
    buffer_evict = 8000;
    tuple_lock = 800;
    txnid_lock = 1300;
    global_lock_table = 2250;
    txn_begin = 1750;
    txn_finalize = 2000;
    app_logic_per_stmt = 2750;
  }

(* Five drives behind a RAID-style controller, but an older-generation
   stack whose random path tops out well below the PM9A3 pair PhoebeDB
   uses; the controller serialises at ~220k IOPS. *)
let odb_device =
  { Device.channels = 10; read_mb_s = 2400.0; write_mb_s = 1500.0; iops = 220_000.0; latency_us = 80.0 }

let odb_like ?(workers = 100) ?(buffer_bytes = 128 * 1024 * 1024) () =
  {
    Config.default with
    Config.n_workers = workers;
    slots_per_worker = 1;
    model = Scheduler.Thread;
    cost = odb_cost;
    buffer_bytes;
    snapshot_mode = Txnmgr.Scan_active;
    lock_style = Config.Global_serialized { lock_hold_ns = 100; snapshot_hold_ns = 150 };
    wal = { Wal.rfa = false; single_writer = true };
    data_device = odb_device;
    wal_device = odb_device;
  }
