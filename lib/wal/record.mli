(** WAL record format.

    Redo-only records (UNDO information lives in memory, §6.2): logical
    after-images of tuple operations plus commit records. Every record
    carries its writer slot, LSN (strictly increasing per WAL writer) and
    GSN (the Lamport-style global sequence number used to order
    cross-page dependencies at recovery, §8). Records are length-prefixed
    and CRC-protected. *)

type op =
  | Insert of { table : int; rid : int; row : Phoebe_storage.Value.t array }
  | Update of { table : int; rid : int; cols : (int * Phoebe_storage.Value.t) array }
  | Delete of { table : int; rid : int }
  | Commit of { xid : int; cts : int }
  | Abort of { xid : int }
      (** written at rollback so recovery does not attribute the
          transaction's earlier records to the slot's next commit *)
  | Prepare of { xid : int; gxid : int; coord : int }
      (** two-phase-commit prepare point for a participant branch of a
          distributed transaction: [gxid] is the global transaction id
          (the coordinator's local xid) and [coord] the coordinator's
          shard id. A slot run that ends [ops…][Prepare] without a
          Commit/Abort is *in doubt* at recovery — its fate is decided
          by looking the gxid up in the coordinator's log (presumed
          abort if absent). *)

type t = { slot : int; lsn : int; gsn : int; op : op }

val encode : Buffer.t -> t -> unit

val decode : Bytes.t -> int -> t * int
(** @raise Failure on CRC mismatch or truncation. *)

type stop_reason =
  | Eof  (** the file ends exactly on a record boundary *)
  | Torn
      (** the file ends mid-record — the normal tail shape after a
          crash cut a flush *)
  | Corrupt
      (** the record is damaged but the file continues past it: bit
          rot or a misdirected write, never a clean crash *)

type stop = {
  stop_offset : int;  (** first byte not consumed *)
  reason : stop_reason;
  bytes_skipped : int;  (** bytes from [stop_offset] to end of file *)
}

val decode_all : Bytes.t -> t list * stop
(** Decode a whole WAL file prefix and say exactly why decoding stopped.
    Never raises: truncation, checksum damage and malformed headers all
    yield a typed {!stop}. *)

val size_bytes : t -> int
(** Encoded size, for WAL-volume accounting. *)

