(** Append-only WAL files on a simulated device, with an honest
    durability model.

    Each task slot owns one WAL file (paper §8, task-slot-specific WAL
    writers). Every file tracks a {b durable frontier}: the contiguous
    byte prefix confirmed on media by device completions. Bytes past the
    frontier are a volatile tail — readable by the running system (a
    host reads its own page cache) but gone after {!crash}. *)

type t

val create : Device.t -> t

val id : t -> int
(** Process-unique store id — the sanitizer scope under which this
    store's per-file WAL monotonicity state is tracked. *)

val append : t -> file:int -> Bytes.t -> on_durable:(unit -> unit) -> unit
(** Queue [bytes] for file [file]; [on_durable] fires when the write —
    and every earlier write to the same file — is confirmed on media,
    so acks are delivered in append order. Under device fault injection
    an append may tear (its sector prefix reaches media, no ack ever)
    or lose its ack (bytes on media, frontier advances, no ack ever). *)

val append_buffer : t -> file:int -> Buffer.t -> on_durable:(unit -> unit) -> unit
(** {!append} of the buffer's contents, blitted into the file without an
    intermediate copy. The buffer is left empty. *)

val contents : t -> file:int -> Bytes.t
(** The live view: everything appended, durable or not. After {!crash}
    this is exactly the surviving media image. *)

val durable_frontier : t -> file:int -> int
(** Bytes of [file] confirmed on media (contiguous prefix). *)

val pending_bytes : t -> file:int -> int
(** Volatile tail: appended bytes not yet confirmed on media. *)

val crash : ?tear:Phoebe_util.Prng.t -> t -> (int * int * int) list
(** Power loss. Every file is truncated to its durable frontier, plus —
    for the first unconfirmed extent only — a torn write's sector prefix,
    or (with [tear]) a random sector-aligned prefix of an in-flight
    write. Returns [(file, surviving_bytes, lost_bytes)] per file.
    Pending acks never fire; the caller is responsible for dropping the
    engine's scheduled completions ({!Phoebe_sim.Engine.clear}). *)

val truncate : t -> file:int -> int -> unit
(** [truncate t ~file len] cuts [file] back to its first [len] bytes,
    durable frontier included. A restart uses it after {!crash} to drop
    a torn tail past the last decodable record, so that new appends
    follow that record. [len] must not exceed the surviving bytes, and
    no write may be in flight. *)

val files : t -> int list
val total_appended : t -> int

val crash_count : t -> int
val device : t -> Device.t
