(** Cross-shard message format.

    Every message of the two-phase-commit protocol (and the remote
    statement execution that precedes it) is keyed by [gxid] — the
    global transaction id, which is the coordinator's local xid — and
    carries its source and destination shard ids. Messages are encoded
    to a flat varint wire form at send time and decoded at delivery, so
    the simulated network charges honest byte counts and the codec is
    exercised on every hop. *)

type payload =
  | Exec of { proc : int; args : Phoebe_storage.Value.t array }
      (** run registered procedure [proc] inside the branch transaction *)
  | Exec_ok of { results : Phoebe_storage.Value.t array }
  | Exec_failed of { reason : int }
      (** branch aborted while executing; [reason] is an
          {!Phoebe_txn.Txnmgr.abort_reason} index (see
          [Cluster.reason_code]) *)
  | Prepare  (** coordinator → participant: force the Prepare record, vote *)
  | Vote_yes
  | Vote_no
  | Decide_commit
  | Decide_abort
  | Status_req
      (** participant → coordinator: an in-doubt branch asking for the
          (durable) decision; unanswered while the coordinator is still
          deciding *)

type t = { gxid : int; src : int; dst : int; payload : payload }

val encode : t -> Bytes.t
(** The wire copy — the one allocation a message costs. *)

val decode : Bytes.t -> t
(** @raise Failure on a malformed message. *)

val size_bytes : t -> int
(** Encoded size without allocating the wire copy. *)

val payload_label : payload -> string
