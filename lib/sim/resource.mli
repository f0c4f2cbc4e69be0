(** A serially-reusable resource with FIFO queueing discipline.

    Models hardware or software servers that process one request at a
    time: the serialised WAL flusher of the PostgreSQL-style baseline,
    its global lock-manager latch, or a single NVMe submission channel.
    [acquire_for] returns the virtual time at which the caller's service
    completes, accounting for everything queued ahead of it. *)

type t

val create : Engine.t -> name:string -> t

val acquire_for : t -> hold_ns:int -> int
(** [acquire_for r ~hold_ns] reserves the resource for [hold_ns] after
    all earlier reservations and returns the completion time. *)

val busy_until : t -> int

val utilisation : t -> since:int -> float
(** Fraction of [since .. now] the resource spent busy. *)
