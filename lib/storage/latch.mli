(** Hybrid latches: optimistic, shared, and exclusive modes (paper §7.2).

    Optimistic readers run without acquiring anything and validate a
    version counter afterwards, retrying on conflict (OLC). Shared and
    exclusive modes are used on B-tree leaves for tuple operations. In
    the co-operative runtime, conflicts arise when a holder suspends on
    I/O while latched; waiters spin with high-urgency yields, charging
    latch-spin cost, exactly the high-urgency yield class of §7.1.

    Discipline: never wait on a low-urgency resource (tuple or txn-id
    lock) while holding a latch — the scheduler's deadlock detector
    fires in tests if this is violated. *)

type t

exception Timeout
(** A latch spin observed the running fiber's transaction deadline
    expire (see {!Phoebe_runtime.Scheduler.spin_yield}). Raised out of
    {!acquire_shared} / {!acquire_exclusive} / {!optimistic_read}; the
    transaction layer converts it into a deadline abort. Never raised
    when no deadline is set on the fiber. *)

val create : unit -> t

val set_tag : t -> int -> unit
(** Label the latch for sanitizer reports (the buffer manager tags frame
    latches with their page id). Purely cosmetic; no effect when the
    sanitizer is off. *)

val uid : t -> int
(** The latch's process-unique id (from {!Phoebe_sanitize.Sanitize.next_uid}).
    A buffer frame and its latch are created together, so the buffer
    manager uses it as the frame's identity in the sanitizer's frame
    mirror. *)

val set_class : t -> string -> unit
(** Register the latch's static class ("declaring-unit.field", e.g.
    ["bufmgr.flatch"]) with the sanitizer's order graph — the same
    vocabulary phoebe_check uses for its static graph, letting tests
    check observed edges are a subset of the static ones. No effect when
    the sanitizer is off. *)

val version : t -> int
val is_exclusive : t -> bool

val optimistic_read : t -> (unit -> 'a) -> 'a
(** Run a read-only section, validating the version afterwards; retries
    (with restart cost) until a consistent view is obtained. *)

val optimistic_read_with : t -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c
(** [optimistic_read_with t f a b] is [optimistic_read t (fun () -> f a b)]
    without building that closure: a descent passes a module-level [f]
    and its node and key, and allocates nothing per level. *)

val acquire_shared : t -> unit
val release_shared : t -> unit

val acquire_exclusive : t -> unit
val release_exclusive : t -> unit
(** Releasing an exclusive latch bumps the version, invalidating
    concurrent optimistic readers. *)

val with_shared : t -> (unit -> 'a) -> 'a
val with_exclusive : t -> (unit -> 'a) -> 'a
