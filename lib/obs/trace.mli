(** Lightweight per-fiber transaction trace spans.

    A span covers one transaction attempt from begin to commit/abort
    and is segmented into phases: useful execution vs. the ways a
    transaction fiber can stall, one per {!phase} constructor. The phase
    a fiber parks with is also what the latch checkers judge
    ({!latch_exempt}). Segments telescope — each phase change closes
    the previous segment at the same timestamp — so the phase times of
    a span sum to its wall-clock (virtual) duration exactly.

    Span state lives in one pre-allocated record per scheduler slot;
    every probe ([begin_span], [suspend], [resume], [set_kind],
    [end_span]) is a handful of int mutations and never allocates.
    Aggregation into per-kind histograms happens once per finished span,
    and export (["trace.txn.<kind>.*"] names) is deferred to registry
    snapshot time via a collector. *)

type t

type phase =
  | Execute  (** running on the CPU (or charged instruction time) *)
  | Lock_wait
      (** blocked on a lock, a wait queue or a globally serialised
          resource (the PG-style lock table and proc array) *)
  | Io_wait  (** suspended on device I/O *)
  | Wal_wait  (** waiting for a local WAL flush (own slot or RFA remote floor) *)
  | Quorum_wait  (** waiting for a replication quorum to acknowledge a commit *)
  | Remote_wait
      (** waiting on a round trip to another node: 2PC votes and
          decisions, remote statement replies *)

type outcome =
  | Committed
  | Aborted  (** conflict/deadlock/user abort (typically retried) *)
  | Cancelled  (** cut short by a transaction deadline or admission shed *)

val all_phases : phase list
(** Every phase, in declaration order. *)

val phase_label : phase -> string
(** Stable lower-snake name of a phase: its constructor name in lower
    case (diagnostics, sanitizer reports, static-analyzer resolution). *)

val latch_exempt : phase -> bool
(** Whether a fiber may park with this phase while holding a latch:
    true only for {!Io_wait}, the page fault a latched holder
    legitimately suspends on (see latch.mli). The one place the
    exemption is decided — the runtime sanitizer ([Scheduler.park]) and
    the static analyzer ([phoebe_check]) both call it. *)

val max_kinds : int
(** Kind indices are [0 .. max_kinds - 1]; kind 0 is ["other"]. *)

val create : ?obs:Obs.t -> n_slots:int -> unit -> t
(** [n_slots] is the total number of fiber slots across all workers.
    When [obs] is given, registers a collector exporting per-kind span
    summaries into every registry snapshot. *)

val set_kind_names : t -> string array -> unit
(** Names for kinds [1..]; kind 0 stays ["other"]. Extra names beyond
    [max_kinds - 1] are ignored. *)

val kind_name : t -> int -> string

(** {2 Probes} — all no-ops on an inactive slot, all allocation-free. *)

val begin_span : t -> slot:int -> now:int -> unit
val set_kind : t -> slot:int -> int -> unit

val suspend : t -> slot:int -> phase -> now:int -> unit
(** Enter a wait phase, closing the current segment. *)

val resume : t -> slot:int -> now:int -> unit
(** Back to [Execute]; no-op if already executing. *)

val cpu_on : t -> slot:int -> unit
(** The slot's fiber was just dispatched onto the CPU. Snapshots
    [Gc.minor_words] so the span's allocation count covers only words
    this fiber allocates itself — the counter is process-global, and
    fibers interleave on one OS thread. *)

val cpu_off : t -> slot:int -> unit
(** The slot's fiber just left the CPU (park, yield, or a coalesced
    instruction charge); closes the allocation segment opened by
    {!cpu_on}. *)

val end_span : t -> slot:int -> now:int -> outcome:outcome -> unit

(** {2 Aggregates} — for tests and harnesses. *)

val finished : t -> kind:int -> int
val committed : t -> kind:int -> int
val aborted : t -> kind:int -> int
val cancelled : t -> kind:int -> int

val minor_words_per_txn : t -> kind:int -> float
(** Mean minor-heap words allocated per finished span of [kind]
    (sampled from [Gc.minor_words] over the span's on-CPU segments —
    deterministic for a fixed seed, DESIGN.md §4h). Exported per kind
    as ["trace.txn.<kind>.alloc.minor_words_per_txn"] and overall as
    ["txn.alloc.minor_words_per_txn"]. *)

val phase_ns : t -> kind:int -> phase -> float
(** Total nanoseconds spent in [phase] across finished spans of [kind]. *)

val total_ns : t -> kind:int -> float
(** Total wall (virtual) nanoseconds of finished spans of [kind];
    equals the sum of {!phase_ns} over all phases. *)

val total_hist : t -> kind:int -> Phoebe_util.Stats.Histogram.t
(** Per-kind histogram of span wall time, for latency percentiles. *)
