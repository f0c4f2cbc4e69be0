(** Visible-version retrieval — Algorithm 1 of the paper.

    Given the current in-page tuple, its page delete mark and its version
    chain, reconstruct the version visible to a snapshot. Because XIDs
    carry a high marker bit, an uncommitted [ets] compares greater than
    every snapshot and the algorithm needs no committed/uncommitted case
    split, exactly as in the paper. *)

val visible_version :
  xid:int ->
  snapshot:int ->
  current:Phoebe_storage.Value.t array ->
  deleted_in_page:bool ->
  head:Undo.t option ->
  bool
(** Whether the row is visible at this snapshot; [false] means deleted,
    or not yet inserted. On [true] the visible version is in [current].
    [head] should come from {!Twin.chain_head} (reclaimed chains read as
    [None], making the in-page version visible).

    Ownership: [current] must be a caller-owned buffer (a scratch row or
    a fresh decode, never page-backed storage). Before-image deltas are
    assembled into it {e in place}, and only the columns a delta names
    are written. Callers that need the unmodified in-page image
    afterwards must pass a copy (DESIGN.md §4h). *)

type write_check =
  | Write_ok  (** no newer committed version, no concurrent writer *)
  | Write_conflict of int  (** a committed version newer than the snapshot: [cts] *)
  | Write_wait of int  (** an uncommitted writer holds the tuple: its XID *)

val check_write : xid:int -> snapshot:int -> head:Undo.t option -> write_check
(** The pre-write protocol of §6.2: examine the chain header before
    modifying a tuple. [Write_wait] directs the caller to the holder's
    transaction-ID lock; what happens after the wait (retry vs abort)
    depends on the isolation level. *)
