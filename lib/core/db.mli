(** The PhoebeDB kernel: wires the simulated hardware, the co-routine
    runtime, the swizzling buffer pool, the parallel WAL, and the MVCC
    transaction manager into one database instance, and exposes the
    transactional API.

    A [Db.t] owns three simulated NVMe devices — the Data Page File
    device, the WAL device, and the Data Block File device (Figure 2) —
    plus the per-worker-partitioned Main Storage buffer pool. *)

type t

val create : Config.t -> t
(** A fresh instance on its own simulation engine: new devices, empty
    stores. *)

val create_on : Phoebe_sim.Engine.t -> Config.t -> t
(** Create a database on an existing simulation engine — several
    instances then share one virtual clock (replication topologies). *)

val create_attached : t -> Config.t -> t
(** The restart-after-crash shape: a fresh instance on the old one's
    engine that reuses its devices and on-"disk" stores — the Data Page
    / Data Block / WAL files survive, the in-memory state does not.
    Frozen-block ids and buffer page ids continue past the old
    instance's, and {!replay_wal} of the surviving WAL resumes the WAL
    writers' LSN/GSN sequences. Everything volatile is built exactly as by
    {!create_on}, including the configured {!Config.t.lock_style}
    contention. Used by {!Checkpoint.restore}. *)

(** {1 Accessors} *)

val config : t -> Config.t
val engine : t -> Phoebe_sim.Engine.t

val obs : t -> Phoebe_obs.Obs.t
(** The instance's observability registry: every subsystem metric
    ([sim.instr.*], [txn.*], [wal.*], [io.*], [buf.*], [sched.*]) plus
    the [trace.txn.*] span summaries when {!Config.t.spans} is on. *)

val trace : t -> Phoebe_obs.Trace.t option
(** The span tracer installed at creation when {!Config.t.spans} is
    set; [None] when span collection is disabled. *)

val scheduler : t -> Phoebe_runtime.Scheduler.t
val txnmgr : t -> Phoebe_txn.Txnmgr.t
val wal : t -> Phoebe_wal.Wal.t
val buffer : t -> Phoebe_storage.Pax.t Phoebe_storage.Bufmgr.t
val data_device : t -> Phoebe_io.Device.t
val wal_device : t -> Phoebe_io.Device.t
val now : t -> int

(** {1 DDL} *)

val create_table :
  ?manifest:Phoebe_btree.Table_tree.manifest ->
  t ->
  name:string ->
  schema:(string * Phoebe_storage.Value.col_type) list ->
  Table.t
(** Register a table. With [manifest] (a checkpoint restore) the table is
    rebuilt over the existing Data Page / Data Block files: no initial
    empty page, leaves fault in on demand.
    @raise Invalid_argument for a duplicate table name. *)

val create_index : t -> Table.t -> name:string -> cols:string list -> unique:bool -> unit
val table : t -> string -> Table.t
(** @raise Not_found for an unknown table. *)

val tables : t -> Table.t list

val table_by_id : t -> int -> Table.t
(** The table whose {!Table.id} is the given id (as WAL records name
    it). @raise Phoebe_util.Phoebe_error.Bug for an unknown id. *)

(** {1 Transactions} *)

val begin_txn : ?isolation:Phoebe_txn.Txnmgr.isolation -> t -> Table.txn
(** Open an explicit transaction (SQL sessions use this); finish it with
    {!Phoebe_txn.Txnmgr.commit} or {!abort_txn}. *)

val abort_txn : t -> Table.txn -> unit
(** Roll the transaction back (physical undo + index fixes included). *)

val with_txn : ?isolation:Phoebe_txn.Txnmgr.isolation -> t -> (Table.txn -> 'a) -> 'a
(** Run a transaction body with commit / rollback / automatic retry on
    {!Phoebe_txn.Txnmgr.Abort} (up to 8 retries; only transient
    reasons — [Deadlock] and [Conflict] — are retried, deadline/shed/user
    aborts propagate). When {!Config.t.txn_deadline_ns} is set and the
    caller runs in a fiber, each attempt arms a virtual-time deadline on
    the fiber: waits past it wake with [Timed_out] (latch spins raise
    {!Phoebe_storage.Latch.Timeout}) and the attempt aborts with reason
    [Deadline] through the normal UNDO rollback. Usable both inside a
    fiber (transactional tasks) and outside (loaders, examples). Outside
    a fiber the body runs in zero virtual time, but the commit only
    submits its WAL flush: the flush reaches media when the engine next
    runs, so a commit is durable only after {!run} or {!checkpoint}. *)

exception Overloaded
(** Raised by {!submit} when admission control refuses the transaction
    (see {!Config.admission}). The work was not enqueued; callers retry
    later (with backoff) or drop the request. *)

val inflight : t -> int
(** Transactions submitted and not yet finished. *)

val sheds : t -> int
(** Transactions refused by admission control so far. *)

val submit :
  ?affinity:int ->
  ?isolation:Phoebe_txn.Txnmgr.isolation ->
  ?on_done:(unit -> unit) ->
  t ->
  (Table.txn -> unit) ->
  unit
(** Enqueue a transaction on the global task queue (pull-based
    scheduling, §7.1). After commit, the worker runs its housekeeping
    cadence: per-slot UNDO GC, twin-table sweeps and buffer maintenance
    on dedicated task slots.
    @raise Overloaded when admission control sheds the transaction. *)

val run : t -> unit
(** Drive the simulation until quiescent. *)

val after_commit_housekeeping : t -> unit
(** The per-worker housekeeping cadence (§7.1): counts a commit and,
    every 64 commits (or when the worker's buffer partition is
    over budget), schedules a housekeeping fiber on this worker's
    dedicated task slot — per-slot UNDO GC, twin-table sweeps, buffer
    cooling/eviction. [Db.submit] calls this automatically; drivers that
    submit through the scheduler directly (the benchmark harnesses) call
    it after each transaction. *)

val run_for : t -> ns:int -> unit
(** Drive the simulation for a virtual-time horizon (throughput runs). *)

(** {1 Maintenance} *)

val checkpoint : t -> unit
(** Flush all WAL writers and wait (quiesce path). Data pages are
    written back separately — by the cleaner, by eviction, and by the
    checkpoint manifest walk — so the on-disk image never runs ahead of
    a snapshot taken earlier. *)

val sync_stores : t -> unit
(** Fsync barrier: drive both page stores until their durable images
    match the latest view, retrying writes that fault injection tears.
    [Checkpoint.take] calls this before publishing a snapshot — the
    image is not a recovery point while any page it references is
    volatile. *)

type crash_report = {
  wal_files : (int * int * int) list;
      (** per WAL file: (file, surviving bytes, bytes lost past the
          durable frontier) *)
  volatile_pages : int;
      (** data/block pages that existed only in the volatile view and
          are gone *)
}

val crash : ?tear:Phoebe_util.Prng.t -> t -> crash_report
(** Power loss at the current virtual-time point — mid-workload is the
    intended use. Snapshots nothing: every pending engine event (device
    completions, fibers, timers) is dropped, every WAL file is truncated
    to its durable frontier ([tear] additionally cuts the last in-flight
    write at a random sector boundary), and every page store reverts to
    its durable images. The handle is dead afterwards except as the
    [from] argument of [Checkpoint.restore] / {!replay_wal}. *)

val wal_lost_bytes : crash_report -> int

val gc : t -> int
(** Run a full UNDO + twin-table GC pass over every slot (the per-worker
    housekeeping cadence does this incrementally during runs). Returns
    UNDO logs reclaimed. *)

val freeze_tables : t -> int
(** Run the §5.2 freeze policy over every table; returns tuples frozen. *)

val replay_wal :
  ?after:(int -> int) ->
  ?decide_in_doubt:(Phoebe_wal.Recovery.in_doubt -> bool) ->
  t ->
  from:Phoebe_io.Walstore.t ->
  Phoebe_wal.Recovery.report
(** Crash recovery: replay committed operations from another instance's
    WAL store into this (freshly created, same-DDL) instance. Table ids
    are matched by creation order, so recreate tables in the same order.
    [after] is the per-slot LSN frontier of a checkpoint (skip records
    already reflected in the restored image). Prepared-but-undecided
    branch transactions are resolved through [decide_in_doubt] — the
    cluster layer answers from the coordinator shard's log; the default
    is presumed abort — and are listed in the report's [in_doubt]
    either way. When [from] is this instance's own WAL store (a
    restart), each file is first truncated to its decodable prefix,
    dropping a torn tail, and the writers resume from the replay's
    decode ({!Phoebe_wal.Wal.resume}): each file's LSN sequence, and
    every writer's GSN past the log's largest. *)

val raw_apply : t -> Phoebe_wal.Recovery.apply
(** The rid-preserving, non-transactional insert/update/delete dispatch
    {!replay_wal} hands to recovery; quorum replicas apply the stream
    through it too. *)

(** {1 Statistics} *)

type stats = {
  committed : int;
  aborted : int;
  deadline_aborts : int;  (** aborts with reason [Deadline] (subset of [aborted]) *)
  sheds : int;  (** transactions refused by admission control *)
  wait_timeouts : int;  (** scheduler waits that woke with [Timed_out] *)
  wal_records : int;
  wal_bytes : int;  (** appended to writer buffers (pre-durability) *)
  wal_durable_bytes : int;  (** flush completions actually received *)
  rfa_local_commits : int;
  rfa_remote_waits : int;
  undo_bytes : int;
  buffer_resident_bytes : int;
  cpu_busy_fraction : float;
  virtual_seconds : float;
}

val stats : t -> stats
val committed : t -> int
val aborted : t -> int

val cleaner_stats : t -> Phoebe_storage.Bufmgr.cleaner_stats
(** Page-cleaner counters: batches submitted, pages cleaned, re-queued
    pages, clean-evict hits vs dirty-evict fallbacks. *)
