(** Kernel configuration: the knobs the paper's experiments turn. *)

(** How lock metadata is managed: PhoebeDB's decentralized scheme, or a
    PostgreSQL/MySQL-style global lock table behind one latch plus a
    proc-array latch for snapshots (Exp 8 baseline; §7.2). *)
type lock_style =
  | Decentralized
  | Global_serialized of { lock_hold_ns : int; snapshot_hold_ns : int }

(** Overload admission control: when enabled, {!Db.submit} sheds new
    transactions (raising {!Db.Overloaded}) while either trigger fires.
    Both thresholds use 0 as "default/off": [max_inflight = 0] means
    4 × the total task-slot count, [max_lock_wait_p95_ns = 0] disables
    the lock-wait-latency trigger. *)
type admission = {
  enabled : bool;
  max_inflight : int;  (** cap on concurrently running transactions (0 = 4 × slots) *)
  max_lock_wait_p95_ns : int;  (** shed while recent lock-wait p95 exceeds this (0 = off) *)
}

type t = {
  n_workers : int;  (** worker threads, each bound to a simulated core *)
  slots_per_worker : int;  (** co-routine task slots per worker (paper default 32) *)
  model : Phoebe_runtime.Scheduler.model;  (** co-routine vs thread execution (Exp 6) *)
  cpu : Phoebe_runtime.Cpu.t;
  cost : Phoebe_sim.Cost.t;
  buffer_bytes : int;  (** Main Storage budget (Exp 5 sweeps this) *)
  cleaner : Phoebe_storage.Bufmgr.cleaner_config;  (** background page-cleaner knobs *)
  leaf_capacity : int;  (** tuples per PAX leaf page *)
  wal : Phoebe_wal.Wal.config;
  snapshot_mode : Phoebe_txn.Txnmgr.snapshot_mode;
  lock_style : lock_style;
  txn_deadline_ns : int;
      (** per-transaction deadline in virtual ns (0 = none). Waits past
          the deadline wake with [Timed_out] and the transaction aborts
          with reason [Deadline] through the normal UNDO rollback. *)
  admission : admission;  (** overload shedding at {!Db.submit} (default off) *)
  spans : bool;  (** collect per-transaction trace spans (default on) *)
  data_device : Phoebe_io.Device.config;
  wal_device : Phoebe_io.Device.config;  (** Exp 3 puts WAL on its own disk *)
  faults : Phoebe_io.Device.fault_config option;
      (** deterministic device fault injection (torn writes, lost and
          delayed completions). [None] (the default) never consults the
          fault machinery: the simulation is bit-identical to a build
          without it. Each device derives its own PRNG stream from
          [fault_seed] (data +0, wal +1, blocks +2). *)
  sanitize : bool;
      (** enable the kernel sanitizer plane ({!Phoebe_sanitize.Sanitize}):
          latch-order race detection, park-while-latched checks, buffer /
          WAL / undo invariant checkers and the replay digest. Off (the
          default) the hooks are unreachable and the event schedule is
          bit-identical to a build without them; on, a detected violation
          raises [Phoebe_util.Phoebe_error.Bug]. *)
}

val default : t
(** 4 workers × 32 slots, co-routine model, 256 MB buffer, read
    committed, O(1) snapshots, PM9A3-class devices. *)
