(** Parallel Write-Ahead Logging with Remote Flush Avoidance (paper §8).

    One WAL writer per task slot, each appending to its own WAL file on
    the (simulated) log device. LSNs are strictly monotone within a
    writer; GSNs are a Lamport clock advanced through page stamps, so
    records that touched the same page are globally ordered. A committing
    transaction normally waits only for its own slot's WAL to flush
    (local durability); it must additionally wait for remote writers only
    when it depended on a page whose latest GSN was produced by another
    slot and is not yet durable — exactly the RFA rule. The "Non-Force,
    Steal" policy holds: data pages may be evicted with uncommitted
    changes, and recovery replays committed work from the logs alone. *)

type t

(** Group commit is driven by commits: a committer waiting on its
    record flushes its writer, bytes buffered while a flush is in flight
    go in the next one, and a writer also flushes once 16 KB are
    buffered. The two fields are the ablations of §8. *)
type config = {
  rfa : bool;  (** false disables RFA: every commit waits for all writers (ablation) *)
  single_writer : bool;
      (** true = all slots funnel into one WAL writer, the traditional
          serialized design (PostgreSQL baseline, §8 "Traditional WAL
          Flushing") *)
}

val default_config : config

val create :
  ?obs:Phoebe_obs.Obs.t ->
  Phoebe_sim.Engine.t ->
  store:Phoebe_io.Walstore.t ->
  n_slots:int ->
  config ->
  t
(** With [obs], record/byte/RFA accounting registers under
    [wal.records], [wal.bytes] and [wal.rfa.{local_commits,remote_waits}]. *)

val resume : t -> Recovery.report -> unit
(** Restart path, after a replay of this log's own store: truncate each
    file to its last transaction boundary ([end_offset]) and continue the
    writers' sequences after it. Each file's writer gets LSN
    [last_lsn + 1] next (a file at or past the slot count is only
    truncated), and every writer's GSN clock and durable GSN start at
    the report's [max_gsn], whether its file holds records or not. *)

val config : t -> config

(** {1 Logging (called with the owning slot id)} *)

val next_gsn : t -> slot:int -> page_gsn:int -> int
(** Advance the slot's Lamport clock past [page_gsn] and return the GSN
    for a new record; the caller stamps the page with it. *)

val observe_page : t -> slot:int -> page_gsn:int -> writer_slot:int -> bool
(** RFA dependency check when touching a page last written by
    [writer_slot]: returns true if the caller now depends on a remote
    unflushed GSN (the transaction must set its remote flag). *)

val append : t -> slot:int -> Record.op -> gsn:int -> int
(** Append a record to the slot's WAL buffer; returns its LSN. *)

val flushed_lsn : t -> slot:int -> int

val durable_floor : t -> int
(** The global durable-GSN floor: every record with GSN [<= floor] is
    durably flushed in every writer ([max_int] when no writer has
    unflushed records). This is the RFA remote-commit predicate;
    replication uses it to ship a global GSN-prefix of the log. *)

val flushed_gsn : t -> slot:int -> int
(** Highest durably flushed GSN in [slot]'s writer. After a commit's
    durability wait this covers every record of the committing
    transaction. *)

(** {1 Commit durability} *)

val commit_durable :
  t -> slot:int -> lsn:int -> needs_remote:bool -> remote_gsn:int -> unit
(** Block the calling fiber until the commit record at [lsn] in [slot]'s
    WAL is durable — and, if [needs_remote], until every writer has
    flushed all records with GSN [<= remote_gsn]. Every commit waits:
    there is no asynchronous-commit mode. *)

val flush_all : t -> on_done:(unit -> unit) -> unit
(** Force-flush every writer (shutdown / quiesce path). *)

(** {1 Introspection} *)

val total_records : t -> int

val total_bytes : t -> int
(** Bytes appended to writer buffers (counted at append time — may not
    have reached the device yet). *)

val total_durable_bytes : t -> int
(** Bytes whose flush completion the WAL actually received; also the
    [wal.bytes.durable] obs counter. Always [<= total_bytes]; the gap is
    the volatile tail (plus acks lost to fault injection). *)

val remote_waits : t -> int
(** Commits that had to wait for a remote writer (RFA misses). *)

val local_commits : t -> int
(** Commits satisfied by the local writer alone (RFA hits). *)

val store : t -> Phoebe_io.Walstore.t
