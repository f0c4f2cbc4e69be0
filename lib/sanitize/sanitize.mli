(** The kernel sanitizer plane: dynamic race/invariant checkers behind
    [Config.sanitize].

    The module is a process-global singleton below every kernel layer
    (it depends only on [Phoebe_util]); the scheduler, latch, buffer
    manager, WAL and transaction layers call its hooks behind a single
    [if Sanitize.on ()] branch. With the plane disabled every hook is
    unreachable and the event schedule is bit-identical to a build
    without it; with it enabled the hooks are pure OCaml mutation —
    they never charge instructions or create engine events, so the
    schedule is unchanged *except* that a detected violation raises.

    Checks (DESIGN.md §4g):
    - {b lock-order}: exclusive latch acquisitions feed a global
      acquisition-order graph; a cycle means two code paths take the
      same latches in opposite orders — a potential spin deadlock the
      runtime cannot detect (latch waits spin; only tuple/table lock
      waits go through the wait-for-graph detector). Reported with both
      witness stacks.
    - {b park-while-latched}: a fiber suspending on anything other than
      device I/O while holding a latch is the cooperative analogue of
      blocking while spinlocked. Device I/O is exempt by design: a
      latched holder faulting a page suspends on [io_wait]
      (see latch.mli). [Scheduler.park] decides the exemption with
      [Trace.latch_exempt] and passes the verdict in, so this library
      stays free of the tracing plane.
    - {b frame state machine}: residency mirror + legal
      resident/dirty/pinned/cooling transitions for buffer frames.
    - {b WAL monotonicity}: per-file strictly-increasing LSNs and
      [durable <= appended] with a monotone durable frontier; a
      restart's cut of a torn tail ({!wal_truncate}) is its one
      backward move, and never reaches below the recorded frontier.
    - {b undo/commit}: chain well-formedness at commit/abort boundaries
      (checked in [Txnmgr], reported through {!violation}).
    - {b replay digest}: a fold of every engine event, for fixed-seed
      double-run determinism checks ([bench --sanitize]). *)

type rule =
  | Lock_order  (** latch acquisition-order cycle *)
  | Park_latched  (** a park [Trace.latch_exempt] rejects (any non-I/O wait) while holding a latch *)
  | Latch_state  (** unbalanced acquire/release or phantom wait state *)
  | Frame_state  (** illegal buffer-frame transition *)
  | Wal_mono  (** LSN or durable-frontier monotonicity breach *)
  | Undo_chain  (** version-chain / durable-watermark violation *)
  | Latch_leak  (** fiber completed while still holding latches *)

val enable : unit -> unit
(** Switch the plane on and {!reset} all tracking state. *)

val disable : unit -> unit
(** Switch the plane off and drop all tracking state. *)

val on : unit -> bool

val reset : unit -> unit
(** Clear findings, held-resource state, graphs, mirrors and the replay
    digest without changing the on/off switch. *)

val findings : unit -> (rule * string) list
(** Recorded findings, oldest first. *)

val finding_counts : unit -> (string * int) list
(** Per-rule finding counts, every rule present, stable order. *)

val total_findings : unit -> int

val violation : rule -> ('a, unit, string, unit) format4 -> 'a
(** Record a finding, then raise [Bug] with subsystem
    ["sanitize.<rule>"]. For kernel layers whose
    invariants are checked in their own code (e.g. [Txnmgr]'s undo
    rules). No-op formatting cost is only paid when called — callers
    must guard with {!on}. *)

val record : rule -> ('a, unit, string, unit) format4 -> 'a
(** Like {!violation} but never raises — for contexts where an
    exception would unwind the scheduler rather than a fiber. *)

val next_uid : unit -> int
(** Process-unique id allocator for latches and checker scopes
    (buffer-manager / WAL-store instances). Safe to call with the
    plane off; never creates engine events. *)

(** {1 Held-resource tracking and the lock-order detector}

    [fiber] is the globally-unique fiber id
    ([Scheduler.current_fiber_id ()]; 0 outside a fiber — bulk loaders
    run their acquisitions on the pseudo-fiber 0). *)

val latch_wait : fiber:int -> uid:int -> tag:int -> exclusive:bool -> unit
(** Declare intent to acquire, before the first spin turn: order-graph
    edges are inserted (and cycles detected) here so an inversion is
    reported even if the acquisition would block forever. Also marks
    the fiber as waiting until {!latch_wait_done}. *)

val latch_wait_done : fiber:int -> unit
(** Clear the waiting marker — on successful acquisition and on
    [Latch.Timeout] alike, so a deadline abort never leaves phantom
    wait state. *)

val latch_acquired : fiber:int -> uid:int -> tag:int -> exclusive:bool -> unit
val latch_released : fiber:int -> uid:int -> unit

val latch_class : uid:int -> name:string -> unit
(** Register a latch's static class ("declaring-unit.field", e.g.
    ["bufmgr.flatch"]) — called by [Latch.set_class] at create sites.
    Classes describe code structure, not execution, so they survive
    {!reset}. *)

val order_class_edges : unit -> (string * string) list
(** The observed acquisition-order graph projected onto latch classes:
    every exclusive-held -> exclusive-acquired edge whose both endpoints
    are classed, deduplicated and sorted. Each must appear in
    phoebe_check's static order graph (the runtime graph only contains
    orderings some execution actually witnessed). *)

val lock_acquired : fiber:int -> table:bool -> unit
(** A granted tuple ([table:false]) or table ([table:true]) lock; held
    counts enrich park/leak witness stacks. *)

val lock_released : fiber:int -> table:bool -> unit

val locks_released_all : fiber:int -> unit
(** Transaction finish: every tuple/table lock the fiber held is
    released at once. *)

val on_park : fiber:int -> exempt:bool -> label:string -> unit
(** Fired by [Scheduler.park] before suspending. [exempt] is the
    wait's [Trace.latch_exempt] verdict (true only for device I/O);
    [label] names the wait in the report. *)

val on_fiber_done : fiber:int -> unit
(** Fiber ran to completion: latches still held become {!Latch_leak}
    findings (recorded, never raised — this runs in scheduler context)
    and the fiber's tracking state is dropped. *)

val held_latches : fiber:int -> int
val is_waiting : fiber:int -> bool

(** {1 Buffer-frame state machine}

    [scope] is the owning buffer manager's uid; page ids are only
    unique within one. [frame] is the frame's own uid (from
    {!next_uid}): a page id outlives its frames, so every hook after
    alloc or fault-in must come from the page's resident frame, and one
    from a frame the page has left is a [Frame_state] finding ("stale
    frame"). *)

val frame_alloc : scope:int -> page_id:int -> frame:int -> unit
val frame_fault_in : scope:int -> page_id:int -> frame:int -> unit
val frame_demote : scope:int -> page_id:int -> frame:int -> hot:bool -> pinned:int -> unit

val frame_clean : scope:int -> page_id:int -> frame:int -> unit
(** A dirty bit flipping off (the one image capture). *)

val frame_evict :
  scope:int -> page_id:int -> frame:int -> dirty:bool -> pinned:int -> cooling:bool -> unit

val frame_drop : scope:int -> page_id:int -> frame:int -> unit

(** {1 WAL monotonicity}

    [scope] is the owning WAL store's uid. *)

val wal_append : scope:int -> file:int -> lsn:int -> unit
val wal_frontier : scope:int -> file:int -> durable:int -> appended:int -> unit

val wal_truncate : scope:int -> file:int -> durable:int -> unit
(** The one legal backward move of a file's durable frontier: a restart
    cuts the bytes a crash left past it (a torn write) back to the last
    decodable record. The cut must not reach below the last frontier
    {!wal_frontier} recorded, which acknowledged commits rely on; later
    frontiers are checked against the new one. *)

val wal_crash : scope:int -> unit
(** A crash legitimately discards appended-but-not-durable records;
    drop the per-file LSN history (the durable frontiers survive). *)

(** {1 Replay digest} *)

val digest_event : int -> int -> unit
(** Fold one engine event's (time, seq) into the digest. *)

val replay_digest : unit -> int
