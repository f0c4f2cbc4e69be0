(** Table locks (paper §7.2): each relation's B-tree carries its own
    lock block — no global lock table. DML takes the lock in shared
    mode (compatible with other DML); DDL-style operations take it
    exclusively. Locks are held to transaction end. *)

type t

type mode = Shared | Exclusive

val create : unit -> t

val exclusive_holder : t -> int
(** XID of the exclusive holder, or 0. *)

val is_free_for : t -> mode -> xid:int -> bool

val add_holder : t -> mode -> xid:int -> unit
val remove_holder : t -> xid:int -> unit
val held_by : t -> xid:int -> mode option

val wait :
  ?deadline:Phoebe_runtime.Scheduler.bound -> t -> Phoebe_runtime.Scheduler.reason
(** Park the current fiber on this lock's queue until a holder releases
    (every release wakes all waiters, who re-check compatibility), the
    resolved deadline expires, or the wait is cancelled. The queue itself
    is internal — callers only wait and wake. *)

val waiter_count : t -> int
