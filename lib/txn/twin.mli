(** Twin tables (paper §6.2): the page-level mapping from tuples to their
    version chains.

    Rather than widening every tuple with a version pointer, each data
    page that has ever been modified owns a twin table mapping row ids to
    version-chain heads — created lazily on first modification, so the
    memory footprint tracks the hot working set. Tuple-lock metadata
    (granted count / owner) also lives here (§7.2). *)

type entry = {
  mutable head : Undo.t option;
  mutable lock_xid : int;  (** 0 when the tuple lock is free *)
  lock_waiters : Phoebe_runtime.Scheduler.Waitq.q;
  mutable wgsn : int;  (** GSN of the tuple's last write (tuple-level RFA, §8) *)
  mutable wslot : int;  (** slot that performed it; -1 = none/flushed long ago *)
}

type t

val create : unit -> t

val find : t -> rid:int -> entry option

val find_or_add : t -> rid:int -> entry

val iter : t -> (int -> entry -> unit) -> unit
(** Visit every (rid, entry) pair; iteration order is unspecified. *)

val max_modifier_xid : t -> int

val note_modifier : t -> xid:int -> unit
(** Record the largest XID that has modified this page (twin-table GC
    reclaims a table only once that XID is globally frozen, §7.3). *)

val entry_count : t -> int

val sweep : ?on_dead:(Undo.t -> unit) -> t -> unit
(** Drop entries whose chain head has been reclaimed (or is empty) and
    whose tuple lock is free. [on_dead] receives the head of each
    dropped entry's fully-reclaimed version chain (commit-order
    reclamation guarantees a reclaimed head has only reclaimed
    successors), so the caller can recycle the entries once nothing can
    reach them. *)

val chain_head : entry -> Undo.t option
(** The head, filtered through the reclaimed flag: reclaimed heads read
    as [None] (the paper's "invalid pointer" case), without taking any
    latch — the queue-like reclamation order makes the flag check safe. *)

val row_head : t -> rid:int -> Undo.t option
(** {!chain_head} of [rid]'s entry, [None] without one; allocates
    nothing. *)
