(** Co-routine pool runtime with a pull-based smart scheduler (paper §7.1).

    Transactions are submitted to a global task queue; simulated worker
    threads pull tasks into their task slots when slots are vacant. A task
    slot runs one co-routine (an OCaml 5 effect-handled fiber) at a time,
    without switching until the fiber voluntarily yields. Yields are
    categorised by urgency: latch spins and asynchronous reads are
    high-urgency (resumed before new tasks are accepted), tuple-lock waits
    are low-urgency.

    Every suspension goes through one wait core: a parked fiber is
    represented by a {!waiter} carrying its urgency class and a wake
    reason. A park with a virtual-time deadline schedules one engine
    event at its expiry, which wakes the waiter with [Timed_out] unless
    something woke it first; the engine's event queue is the only queue
    of virtual time. A park without a deadline creates no event.

    The same runtime also emulates the thread-per-transaction model used
    as the Exp 6 baseline: one slot per worker, kernel-priced context
    switches, and time-shared cores once workers outnumber them. *)

type t

type model = Coroutine | Thread

type urgency = High | Low

type reason =
  | Signalled  (** the event waited for happened *)
  | Timed_out  (** the wait's deadline expired first *)

(** Deadline policy of an individual wait, resolved against the fiber's
    transaction deadline (see {!set_txn_deadline}) at park time. *)
type bound =
  | Inherit  (** the fiber's transaction deadline, if any (the default) *)
  | Never  (** wait unconditionally — commit durability, page I/O *)
  | At of int  (** absolute virtual time, capped by the fiber's deadline *)

type waiter
(** A parked fiber: the handle a wait registers with its wake source. *)

type config = {
  model : model;
  n_workers : int;
  slots_per_worker : int;
  cpu : Cpu.t;
  cost : Phoebe_sim.Cost.t;
}

val default_config : config
(** Coroutine model, 4 workers, 32 slots per worker, default CPU/costs. *)

val create : ?obs:Phoebe_obs.Obs.t -> Phoebe_sim.Engine.t -> config -> t
(** When [obs] is given, the per-component instruction counters register
    themselves under [sim.instr.<component>] and the scheduler exports
    [sched.busy_fraction] (pull metric) and [sched.timeouts] (deadline
    expiries delivered, parked waits and latch spins alike). *)

val engine : t -> Phoebe_sim.Engine.t
val counters : t -> Phoebe_sim.Counters.t

val set_trace : t -> Phoebe_obs.Trace.t -> unit
(** Install a span tracer; the scheduler then fires {!Phoebe_obs.Trace}
    suspend/resume probes on fiber block/IO/dispatch transitions. *)

val trace : t -> Phoebe_obs.Trace.t option
val cost : t -> Phoebe_sim.Cost.t
val config : t -> config
val now : t -> int

val n_slots : t -> int
(** Total task slots across all workers ([n_workers * slots_per_worker]). *)

val submit : ?affinity:int -> t -> (unit -> unit) -> unit
(** Enqueue a task. [affinity w] pins it to worker [w mod n_workers]'s
    local queue; otherwise any worker may pull it. The task body runs as
    a fiber and may use all fiber-side operations below. *)

val run_until_quiescent : t -> unit
(** Drive the simulation until no events remain. Re-raises the first
    uncaught exception from any fiber. *)

val pending_tasks : t -> int
val live_fibers : t -> int

val busy_fraction : t -> float
(** Mean CPU utilisation across workers since creation (Exp 9's 77%). *)

val timeouts : t -> int
(** Deadline expiries delivered so far ([sched.timeouts]). *)

val lock_wait_p95_ns : t -> int
(** p95 of the most recent lock-wait durations (sliding window), the
    admission controller's congestion signal. 0 before any lock wait. *)

(** {1 Fiber-side operations}

    These may only be called from inside a submitted task (except
    [charge], [yield] and [io_wait], which degrade gracefully outside a
    fiber so that bulk loaders can reuse the kernel code paths without
    consuming virtual time). *)

val in_fiber : unit -> bool

val charge : Phoebe_sim.Component.t -> int -> unit
(** Consume CPU: tags the instructions for Exp 7 and advances this
    worker's virtual clock. Does not switch fibers. No-op outside a fiber. *)

val yield : urgency -> unit
(** Voluntarily yield the worker; the fiber is re-queued at the given
    urgency. No-op outside a fiber. *)

(** {1 The wait core} *)

val park :
  ?deadline:bound -> urgency:urgency -> phase:Phoebe_obs.Trace.phase -> (waiter -> unit) -> reason
(** [park ~urgency ~phase register] suspends the current fiber as a
    {!waiter} and hands it to [register], which must store it with the
    wake source (a device completion list, a wait queue, a WAL waiter
    list). The fiber resumes — re-queued at [urgency] — when someone
    calls {!wake_waiter} or when the resolved [deadline] expires; the
    delivered {!reason} says which. The waiter is recycled once [park]
    returns: a wake source must drop it by then. [phase] names
    what the fiber waits on, and is the one description of the wait:
    - trace spans file the suspension under it;
    - under the sanitizer, parking while holding a latch is a
      [park_latched] violation unless {!Phoebe_obs.Trace.latch_exempt}
      holds for it (device I/O only); [phoebe_check] applies the same
      predicate statically;
    - only {!Phoebe_obs.Trace.Lock_wait} waits feed the
      {!lock_wait_p95_ns} window.
    @raise Phoebe_util.Phoebe_error.Bug outside a fiber. *)

val wake_waiter : waiter -> reason -> bool
(** Deliver a wake. Idempotent — only the first wake of a waiter takes
    effect (a later signal racing a timeout is a no-op); returns whether
    this call performed the wake. A woken waiter leaves its {!Waitq} at
    once. Safe to call from anywhere, including plain engine callbacks. *)

val spin_yield : ?deadline:bound -> urgency -> reason
(** One turn of a deadline-bounded spin wait (latch acquisition): returns
    [Timed_out] immediately if the resolved [deadline] (default: the
    fiber's transaction deadline) has passed, otherwise yields at the
    given urgency and returns [Signalled]. With no deadline set this is
    exactly {!yield}. [Signalled] outside a fiber. *)

val set_txn_deadline : int option -> unit
(** Install (absolute virtual time) or clear the running fiber's
    transaction deadline — the deadline that [Inherit]-bound waits and
    spins resolve to. No-op outside a fiber. *)

val io_wait : ((unit -> unit) -> unit) -> unit
(** [io_wait register] parks the fiber ({!Never} bound, high urgency,
    {!Phoebe_obs.Trace.Io_wait} phase) and calls [register resume]; the
    I/O device calls [resume] on completion. Outside a fiber, [register]
    is called with a no-op continuation (synchronous completion). *)

val current_fiber_id : unit -> int
(** Process-unique id of the running fiber (ids are never reused, even
    across scheduler instances), or [0] outside a fiber — the sanitizer
    keys per-fiber held-resource state on this, with 0 standing for the
    fiber-less bulk-load context. *)

val current_worker : unit -> int
(** Worker id of the running fiber.
    @raise Phoebe_util.Phoebe_error.Bug outside a fiber. *)

val current_slot : unit -> int
(** Global task-slot id ([worker * slots_per_worker + slot]). Slot-scoped
    engine state (WAL writers, UNDO arenas, tuple-lock registers) indexes
    off this. @raise Phoebe_util.Phoebe_error.Bug outside a fiber. *)

val current_cost : unit -> Phoebe_sim.Cost.t
(** Cost model of the running fiber's scheduler, or
    {!Phoebe_sim.Cost.default} outside a fiber. Allocation-free: kernel
    hot paths call it once per operation to price their charges. *)

(** {1 Span probes}

    Transaction-span hooks for kernel code; all no-ops outside a fiber
    or when no tracer is installed, and allocation-free otherwise. *)

val span_begin : unit -> unit
(** Open a span on the current fiber's slot (transaction begin). *)

val span_end : Phoebe_obs.Trace.outcome -> unit
(** Close the current slot's span (committed, aborted, or cancelled by
    deadline/shedding). *)

val span_kind : int -> unit
(** Label the open span with a transaction-kind index (see
    {!Phoebe_obs.Trace.set_kind}). *)

(** {1 Wait queues (condition variables for fibers)}

    A thin layer over the wait core: waiters queue in FIFO order and
    are woken at low urgency. *)

module Waitq : sig
  type q

  val create : unit -> q

  val wait : q -> unit
  (** Block the current fiber until signalled, unconditionally (the
      pre-deadline behaviour; equivalent to [wait_r ~deadline:Never]).
      @raise Phoebe_util.Phoebe_error.Bug outside a fiber. *)

  val wait_r : ?deadline:bound -> q -> reason
  (** Block until signalled, the resolved deadline (default: the
      fiber's transaction deadline) expires; returns what happened. A
      waiter that times out leaves the queue at once.
      @raise Phoebe_util.Phoebe_error.Bug outside a fiber. *)

  val signal_all : q -> unit
  (** Wake every queued waiter ([Signalled]) in FIFO order. Callable
      from anywhere. *)

  val is_empty : q -> bool

  val length : q -> int
  (** Waiters queued, each one still parked. *)
end
