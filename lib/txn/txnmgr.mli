(** Transaction lifecycle, decentralized locks, and garbage collection
    (paper §6, §7.2, §7.3).

    Each transaction gets an XID embedding its start timestamp; its
    snapshot is a single clock read (O(1)), refreshed per statement under
    read committed and pinned at start under repeatable read. Commit
    stamps every UNDO log with the commit timestamp in one scan, logs a
    commit record, and waits for WAL durability per the RFA rule.

    Locks are decentralized: each transaction carries the wait queue for
    its own transaction-ID lock (no global lock table); tuple-lock
    metadata lives in the twin tables. A wait-for walk at block time
    aborts the requester on cycles (deadlock). *)

type isolation = Read_committed | Repeatable_read

type state =
  | Active
  | Prepared
      (** two-phase commit: the branch forced its Prepare record and now
          awaits the coordinator's decision, locks held, writes still
          invisible *)
  | Committed
  | Aborted

type snapshot_mode =
  | O1_timestamp  (** PhoebeDB: one clock read *)
  | Scan_active  (** PostgreSQL-style: cost scales with active transactions (baseline/ablation) *)

(** Serialization points of the PostgreSQL-style baseline: a global
    lock-manager latch every lock operation funnels through, and the
    proc-array latch serialising snapshot acquisition. [None] = the
    decentralized PhoebeDB design (§7.2). *)
type contention = {
  engine : Phoebe_sim.Engine.t;
  lock_table : (Phoebe_sim.Resource.t * int) option;  (** resource, hold ns per lock op *)
  proc_array : (Phoebe_sim.Resource.t * int) option;  (** resource, hold ns per snapshot *)
}

(** Why a transaction aborted. The runner's retry policy keys on this:
    [Deadlock] and [Conflict] are transient and worth retrying in place;
    [Deadline] and [Shed] are cancellations (the system refused or cut
    short the work — retrying immediately would make overload worse);
    [User] is an application-initiated rollback. *)
type abort_reason =
  | Deadlock  (** wait-for cycle detected at block time *)
  | Deadline  (** the transaction's deadline expired (wait timed out) *)
  | Shed  (** refused by admission control before doing work *)
  | Conflict  (** MVCC serialization failure or unique-key conflict *)
  | User  (** application-requested rollback *)

exception Abort of abort_reason * string
(** Raised into the transaction body on conflicts/deadlocks/deadline
    expiry; the runner rolls back (and retries when the reason is
    transient). *)

val reason_label : abort_reason -> string
(** Stable lowercase label ("deadlock", "deadline", "shed", "conflict",
    "user") for reports and JSON output. *)

type txn = {
  xid : int;
  start_ts : int;
  isolation : isolation;
  slot : int;
  mutable snapshot : int;
  mutable cts : int;
  mutable state : state;
  mutable undo_newest : Undo.t option;
  mutable undo_count : int;
  waiters : Phoebe_runtime.Scheduler.Waitq.q;  (** this txn's ID lock *)
  mutable needs_remote : bool;
  mutable remote_gsn : int;
  mutable wrote : bool;
  mutable waiting_on : int;  (** xid currently blocked on; 0 = none *)
  mutable held_table_locks : Tablelock.t list;  (** released at txn end (§7.2) *)
}

type t

(** [create ?obs ...]: with [obs], commit/abort/undo accounting
    registers under [txn.{committed,aborted,undo_bytes}]. Transactions
    also open/close an observability span on the running fiber's slot
    when a tracer is installed on the scheduler. *)
val create :
  ?obs:Phoebe_obs.Obs.t ->
  clock:Clock.t ->
  wal:Phoebe_wal.Wal.t ->
  n_slots:int ->
  ?snapshot_mode:snapshot_mode ->
  ?contention:contention ->
  unit ->
  t

val clock : t -> Clock.t
val wal : t -> Phoebe_wal.Wal.t

(** {1 Lifecycle} *)

val begin_txn : t -> isolation:isolation -> slot:int -> txn

val refresh_snapshot : t -> txn -> unit
(** Statement boundary under read committed: take a fresh snapshot.
    No-op under repeatable read. *)

val add_undo : t -> txn -> Undo.t -> unit
(** Register a freshly created UNDO log with its transaction. *)

val prepare : t -> txn -> gxid:int -> coord:int -> unit
(** Two-phase commit, phase one (participant branch of global
    transaction [gxid] coordinated by shard [coord]): force a Prepare
    record under the same RFA durability rule as a commit record and
    move the transaction to {!Prepared}. The undo chain is *not*
    commit-stamped — the branch's writes stay invisible and
    sanitizer-protected — and locks stay held until the decision
    arrives as {!commit} or {!abort}. A read-only branch writes
    nothing and prepares instantly. *)

val commit : t -> txn -> unit
(** Assign cts, stamp the UNDO logs, log + await durability (RFA), wake
    ID-lock waiters, and queue the UNDO bundle for GC. Accepts both
    [Active] and [Prepared] transactions. *)

val abort : ?reason:abort_reason -> t -> txn -> rollback:(Undo.t -> unit) -> unit
(** Roll back newest-to-oldest via [rollback], log an abort record, wake
    waiters. [reason] (default [User]) drives the per-reason abort
    counters and the span outcome: deadline/shed aborts end their trace
    span as [Cancelled], others as [Aborted]. *)

val set_commit_barrier : t -> (slot:int -> lsn:int -> unit) option -> unit
(** Install an extra durability barrier, run inside {!commit} and
    {!prepare} right after the local WAL durability wait of a
    transaction that wrote (and before locks release or the per-slot
    durable watermark advances). Replication uses it to gate commit
    visibility on quorum acknowledgement: the barrier may park the
    committing fiber and return once the group's majority has the
    commit durable. [None] (the default) restores plain local
    durability — the branch is never taken and the event schedule is
    bit-identical. *)

val active_count : t -> int

(** {1 Waiting (transaction-ID locks)} *)

val wait_for_txn : t -> txn -> holder_xid:int -> unit
(** Take a shared lock on [holder_xid]'s ID lock: block until that
    transaction finishes. Detects wait-for cycles and raises {!Abort}
    on deadlock. Returns immediately if the holder already finished. *)

(** {1 Twin tables} *)

val twin_for_page : t -> page_id:int -> Twin.t
val twin_of_page : t -> page_id:int -> Twin.t option

val chain_head : t -> page_id:int -> rid:int -> Undo.t option
(** {!Twin.row_head} of [rid] in [page_id]'s twin table; [None] without
    one. Builds no option on the way: visibility reads it on every
    probe. *)

val durable_commit_ts : t -> slot:int -> int
(** Highest commit timestamp in [slot] whose commit record has passed
    its durability wait. A commit-stamped undo entry with
    [ets > durable_commit_ts ~slot] belongs to a transaction whose
    commit record may still be volatile: the write-back steal guard
    must treat it as uncommitted, or a stolen flush could persist changes the
    crashed WAL cannot justify. *)

val lock_tuple : t -> txn -> Twin.entry -> unit
(** Short-duration tuple lock (held at most for one operation, §7.2). *)

val lock_table : t -> txn -> Tablelock.t -> mode:Tablelock.mode -> unit
(** Acquire a table lock, blocking behind incompatible holders (with
    deadlock detection); held until commit/abort. DML takes [Shared]
    (compatible with other DML), DDL-style operations [Exclusive]. *)

val unlock_tuple : t -> txn -> Twin.entry -> unit

(** {1 Garbage collection (§7.3)} *)

val min_active_start_ts : t -> int
(** The low watermark: UNDO logs with cts below it are reclaimable.
    [max_int] when no transaction is active. *)

val gc_slot : t -> slot:int -> watermark:int -> on_reclaim:(Undo.t -> unit) -> int
(** Reclaim committed UNDO bundles of one slot queue-style up to
    [watermark] (from {!min_active_start_ts}, computed once per GC
    cycle). [on_reclaim] fires for every reclaimed log (before the
    reclaimed flag is set) so the caller can do the physical cleanup:
    strip index entries of deleted tuples, drop stale index entries of
    key updates. Returns the number of UNDO logs reclaimed. *)

val gc_twins : t -> watermark:int -> int
(** Sweep twin tables: drop reclaimed entries, drop tables whose max
    modifier XID is at or below the frozen watermark. Returns entries
    removed. Swept version chains (and earlier aborted-transaction
    batches) are parked in a limbo list and recycled onto the
    {!Undo.release} freelist once their grace period has elapsed:
    [watermark] is {!min_active_start_ts}, and a batch is released only
    when it was parked strictly before every still-active transaction
    started — a reader suspended mid-chain-walk can therefore never see
    a recycled entry (DESIGN.md §4h). *)

val undo_bytes : t -> int
(** Live UNDO memory (decreases as GC reclaims). *)

val stats_aborted : t -> int
val stats_committed : t -> int

val stats_aborted_for : t -> abort_reason -> int
(** Aborts broken down by reason (sums to {!stats_aborted}). *)
