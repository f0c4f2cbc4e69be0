type lock_style =
  | Decentralized
  | Global_serialized of { lock_hold_ns : int; snapshot_hold_ns : int }

type admission = {
  enabled : bool;
  max_inflight : int;
  max_lock_wait_p95_ns : int;
}

type t = {
  n_workers : int;
  slots_per_worker : int;
  model : Phoebe_runtime.Scheduler.model;
  cpu : Phoebe_runtime.Cpu.t;
  cost : Phoebe_sim.Cost.t;
  buffer_bytes : int;
  cleaner : Phoebe_storage.Bufmgr.cleaner_config;
  leaf_capacity : int;
  wal : Phoebe_wal.Wal.config;
  snapshot_mode : Phoebe_txn.Txnmgr.snapshot_mode;
  lock_style : lock_style;
  txn_deadline_ns : int;
  admission : admission;
  spans : bool;
  data_device : Phoebe_io.Device.config;
  wal_device : Phoebe_io.Device.config;
  faults : Phoebe_io.Device.fault_config option;
  sanitize : bool;
}

let default =
  {
    n_workers = 4;
    slots_per_worker = 32;
    model = Phoebe_runtime.Scheduler.Coroutine;
    cpu = Phoebe_runtime.Cpu.default;
    cost = Phoebe_sim.Cost.default;
    buffer_bytes = 256 * 1024 * 1024;
    cleaner = Phoebe_storage.Bufmgr.default_cleaner;
    leaf_capacity = 256;
    wal = Phoebe_wal.Wal.default_config;
    snapshot_mode = Phoebe_txn.Txnmgr.O1_timestamp;
    lock_style = Decentralized;
    txn_deadline_ns = 0;
    admission = { enabled = false; max_inflight = 0; max_lock_wait_p95_ns = 0 };
    spans = true;
    data_device = Phoebe_io.Device.pm9a3;
    wal_device = Phoebe_io.Device.pm9a3;
    faults = None;
    sanitize = false;
  }
