(** Typed metrics registry: the single observability plane for the
    kernel.

    Every subsystem registers its metrics once at construction time
    under a stable dotted name (["wal.records"], ["io.data.read.bytes"],
    ["buf.cleaner.batches"], ...) and receives a typed handle. Hot-path
    updates through a handle are plain int / float-array mutations —
    no allocation, no closure capture per event. Aggregation (snapshot,
    diff, JSON export) happens only when a harness asks for it.

    Metric name schema (see DESIGN.md §4d):
    - [sim.instr.<component>] — simulated instruction counters
    - [sched.busy_fraction] — scheduler CPU busy fraction
    - [txn.{committed,aborted,undo_bytes}] — transaction manager
    - [wal.{records,bytes}], [wal.rfa.{local_commits,remote_waits}]
    - [io.<device>.{read,write}.{bytes,ops,batches}],
      [io.<device>.{read,write}.series], [io.<device>.busy_fraction]
    - [buf.resident_{bytes,pages}], [buf.cleaner.*]
    - [trace.txn.<kind>.*] — per-transaction-type span summaries
      (exported by {!Trace} via a collector) *)

type value =
  | Int of int
  | Float of float
  | Stat of { count : int; sum : float; mean : float; min : float; max : float }
  | Hist of { count : int; sum : float; mean : float; p50 : float; p90 : float; p99 : float }
  | Series of (int * float) list
      (** [(bucket_start_time_ns, total)] pairs in time order. *)

module Counter : sig
  (** Monotonic (by convention) integer counter. Updates never
      allocate. *)

  type t

  val create : unit -> t
  (** A standalone handle not attached to any registry — for components
      built without an observability plane. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val set : t -> int -> unit
end

module Gauge : sig
  (** Last-write-wins float. Backed by a float array slot so [set] is
      an unboxed store (a mutable float record field would box). *)

  type t

  val create : unit -> t
  (** A standalone handle not attached to any registry. *)

  val set : t -> float -> unit
  val get : t -> float
end

type t

val create : unit -> t

(** {2 Registration}

    Registration is idempotent: registering the same name with the same
    kind returns the existing handle (so two subsystems can share a
    metric); re-registering a name as a different kind raises
    {!Phoebe_util.Phoebe_error.Bug}. Pull functions ([int_fn],
    [float_fn]) are last-write-wins instead, so a rebuilt component can
    re-point its collector. *)

val counter : t -> string -> Counter.t
val gauge : t -> string -> Gauge.t
val scalar : t -> string -> Phoebe_util.Stats.Scalar.t
val histogram : t -> string -> Phoebe_util.Stats.Histogram.t
val series : t -> string -> bucket_width:int -> Phoebe_util.Stats.Series.t

val int_fn : t -> string -> (unit -> int) -> unit
(** Pull metric: the closure is evaluated at snapshot time only. *)

val float_fn : t -> string -> (unit -> float) -> unit

val add_collector : t -> (unit -> (string * value) list) -> unit
(** Registers a callback contributing extra (name, value) pairs to
    every snapshot — used by {!Trace} to defer span assembly off the
    hot path. *)

(** {2 Reading} *)

val of_hist : Phoebe_util.Stats.Histogram.t -> value

val snapshot : t -> (string * value) list
(** All metrics (including collector output), sorted by name —
    deterministic for a deterministic simulation. *)

val diff : older:(string * value) list -> newer:(string * value) list -> (string * value) list
(** Pointwise difference over [newer]: [Int]/[Float] values with a
    matching entry in [older] are subtracted; everything else (and
    names absent from [older]) is taken from [newer] unchanged. *)

val to_json : t -> Phoebe_util.Json.t
(** Flat object keyed by dotted metric name, keys sorted. *)

val to_json_prefixed : t -> prefix:string -> (string * Phoebe_util.Json.t) list
(** The registry flattened as [(prefix ^ name, json)] pairs, keys
    sorted — for aggregating several registries (e.g. one per shard
    under ["shard.<k>."]) into one enclosing object. *)
