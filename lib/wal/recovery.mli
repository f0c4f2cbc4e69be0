(** Crash recovery: rebuild committed state from the per-slot WAL files.

    This module is the only place that decides how WAL records become
    committed transactions and in what order their operations apply.
    The {!runs} machine groups each file's records into transactions:
    data records accumulate until the file's next Commit (applied) or
    Abort (dropped), and a trailing Prepare holds its run as an in-doubt
    branch until its decision arrives or {!resolve} decides it. Crash
    recovery feeds it file by file; quorum replication feeds it chunk by
    chunk. Committed operations then apply in one {!order_ops} order —
    the GSN Lamport order makes same-page operations globally ordered.
    Records from uncommitted transactions are dropped, implementing the
    redo side of "Non-Force, Steal" (in-memory UNDO never survives a
    crash, so nothing needs rolling back). *)

type apply = {
  insert : table:int -> rid:int -> Phoebe_storage.Value.t array -> unit;
  update : table:int -> rid:int -> (int * Phoebe_storage.Value.t) array -> unit;
  delete : table:int -> rid:int -> unit;
}

type in_doubt = { gxid : int; coord : int; ops : Record.t list }
(** A slot run that prepared (two-phase commit) but whose decision
    record did not survive the crash. Resolved at replay time by the
    caller's [decide_in_doubt] against the coordinator shard's log —
    the gxid is the coordinator's local xid, so a Commit for it there
    means commit, anything else means presumed abort. *)

type tail = { file : int; last_lsn : int; end_offset : int }
(** Where one WAL file is kept to after a crash: its last transaction
    boundary within the decodable prefix, the end of its last Commit,
    Abort or Prepare record (a trailing prepared run is in doubt and
    stays). [last_lsn] is that record's LSN ([-1] if there is none) and
    [end_offset] the byte just past it. A restart truncates the file to
    [end_offset] and resumes its writer after [last_lsn]
    ({!Phoebe_wal.Wal.resume}), so the file is decoded once, by the
    replay, and new records follow the last boundary: neither a torn
    tail nor the data records of a transaction that never committed
    stay in front of them, where the next commit would adopt them. *)

type report = {
  files_read : int;
  records_read : int;
  committed_txns : int;
  ops_replayed : int;
  ops_dropped : int;  (** operations of uncommitted transactions *)
  torn_tails : int;  (** files whose tail was cut mid-record by a crash *)
  bytes_skipped : int;  (** bytes past the last decodable record, all files *)
  corrupt_records : int;
      (** files where decoding stopped on a damaged record with more
          data after it — never produced by a clean crash *)
  in_doubt : in_doubt list;  (** prepared-but-undecided branches, per slot *)
  tails : tail list;  (** one per file, in file order *)
  max_gsn : int;
      (** the largest GSN of any record a restart keeps (up to its file's
          tail boundary), in any file, frontier or not ([0] if none): a
          restart resumes every writer past it *)
}

val replay :
  ?after:(int -> int) -> ?decide_in_doubt:(in_doubt -> bool) -> Phoebe_io.Walstore.t -> apply -> report
(** [after slot] is a per-slot LSN frontier: records at or below it are
    already reflected in the restored state (checkpoint) and skipped.
    Default: replay everything. [decide_in_doubt] resolves each
    prepared-but-undecided branch: [true] replays its ops (merged into
    the global ordering so row-id allocation order is preserved),
    [false] drops them. Default: presumed abort. The branch appears in
    the report's [in_doubt] either way.
    @raise Phoebe_util.Phoebe_error.Bug if a frontier lands on a data
    record — a checkpoint can only cover whole transactions, so a
    mid-transaction frontier means the snapshot or the WAL is wrong and
    replaying would silently split the transaction. *)

val committed_transactions : Phoebe_io.Walstore.t -> (int * int) list
(** (xid, cts) pairs found in the logs, sorted by cts. *)

(** {1 The transaction-run machine} *)

type runs
(** Per-file run state plus the committed operations not yet taken. *)

val runs : ?lead:(int -> int) -> unit -> runs
(** [lead file] is the leading {!order_ops} key of the operations of
    [file] (default 0): quorum replication passes the primary's view,
    so each primary generation applies after the one before it. *)

val feed : runs -> file:int -> Record.t -> unit
(** Feed [file]'s next record, in LSN order.
    @raise Phoebe_util.Phoebe_error.Bug on a second Prepare in a run
    without a decision between. *)

val take_committed : runs -> (int * Record.t) list
(** The [(lead, record)] operations committed since the last take, in
    no particular order: pass them through {!order_ops}. *)

val resolve : runs -> decide:(in_doubt -> bool) -> in_doubt list
(** Decide every held prepared branch, in file order: [true] makes its
    operations committed (taken with the next {!take_committed}, so they
    join the same ordered apply), [false] drops them. Returns the
    branches. *)

val order_ops : (int * Record.t) list -> (int * Record.t) list
(** The one apply order: by leading key, then inserts in (table, rid)
    order, then every other operation in (GSN, slot, LSN) order. *)

val apply_op : apply -> Record.t -> unit
(** Dispatch one data record to [apply]; decision records are no-ops. *)
