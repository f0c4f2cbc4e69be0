(** Simulated NVMe SSD.

    Stand-in for the paper's Samsung PM9A3 enterprise drives (the
    hardware gate of this reproduction). The device executes requests on
    a fixed number of internal channels — NVMe internal parallelism —
    each serving one request at a time. A request's service time is
    [max (bytes / bandwidth) (1 / iops)] and its completion fires
    [base latency] after service ends. Per-second read/write byte
    series feed the Exp 3 and Exp 4 throughput-over-time figures. *)

type t

type kind = Read | Write

type config = {
  channels : int;  (** internal parallelism (submission queues actually served) *)
  read_mb_s : float;  (** per-device sustained read bandwidth *)
  write_mb_s : float;  (** per-device sustained write bandwidth *)
  iops : float;  (** small-request ops/sec ceiling, per device *)
  latency_us : float;  (** base access latency *)
}

val pm9a3 : config
(** Calibrated to the PM9A3's published envelope: ~6.5 GB/s read,
    ~1.9 GB/s sustained write, ~130k random-write IOPS consumed by the
    WAL, ~90 µs access latency. *)

val sector_size : int
(** Atomic write unit (512 bytes): torn writes land a sector-aligned
    prefix on media. *)

type fault_config = {
  fault_seed : int;  (** dedicated PRNG seed; independent of workload seeds *)
  torn_write_p : float;
      (** probability a write lands only a sector-aligned strict prefix
          on media and never completes *)
  lost_ack_p : float;
      (** probability a write reaches media in full but its completion
          is never delivered *)
  delayed_ack_p : float;  (** probability a completion is delivered late *)
  max_delay_ns : int;  (** upper bound for the extra delay *)
}

type write_outcome =
  | W_done  (** data on media, completion delivered now *)
  | W_torn of int
      (** only this sector-aligned byte prefix reached media; no
          completion will ever be delivered *)
  | W_lost_ack
      (** data on media in full, but the host never learns: callers must
          not acknowledge durability upward *)

val create :
  ?obs:Phoebe_obs.Obs.t ->
  ?faults:fault_config ->
  Phoebe_sim.Engine.t ->
  name:string ->
  config ->
  t
(** With [obs], the device registers its accounting under
    [io.<name>.{read,write}.{bytes,ops,batches}], its 100ms throughput
    series under [io.<name>.{read,write}.series], and a
    [io.<name>.busy_fraction] pull metric. With [faults], writes issued
    through {!submit_writes} are perturbed by a deterministic PRNG
    seeded from [fault_seed], and [io.<name>.faults.{torn,lost_ack,
    delayed}] counters join the registry; without it the fault machinery
    is never consulted and the simulation is bit-identical to a build
    that does not have it.
    @raise Invalid_argument if [config.channels < 1]. *)

val name : t -> string
val engine : t -> Phoebe_sim.Engine.t

val fault_recovery_ns : int
(** Virtual-time penalty for host-side fault recovery: the completion
    timeout + controller reset + verify pass that resolves a lost
    completion (late ack) or a torn write (tail rewrite). Stores
    schedule their recovery this far after the fault surfaces. *)

val submit : t -> kind -> bytes:int -> on_complete:(unit -> unit) -> unit
(** Queue a request; [on_complete] fires at its virtual completion time. *)

val submit_batch : t -> kind -> sizes:int list -> on_complete:(int -> unit) -> unit
(** Queue a vectored request — one multi-SQE doorbell. The batch occupies
    a single channel for [max (sum sizes / bandwidth) (1 / iops)]: one
    IOPS charge amortised across the batch plus the summed bandwidth
    cost. [on_complete i] fires once per op, in submission order, when
    the batch completes. Each op still counts toward {!total_ops} and the
    throughput series; the batch counts once toward {!total_batches}. *)

val submit_writes : t -> sizes:int list -> on_outcome:(int -> write_outcome -> unit) -> unit
(** The outcome-aware write path used by the stores. Books the channel
    exactly like {!submit_batch} with [Write]; [on_outcome i] fires once
    per op with what actually happened to it. With fault injection off
    every op gets [W_done] at the batch completion time, in submission
    order — the same events {!submit_batch} would schedule. A torn or
    lost-ack op fires [on_outcome] too (so the store can update its
    media model), but the store must not report durability to its own
    callers for it. *)

val fault_counts : t -> int * int * int
(** [(torn, lost_ack, delayed)] injected so far. All zero when fault
    injection is off. *)

val blocking : t -> kind -> bytes:int -> unit
(** Issue a request from a fiber and suspend until it completes; outside
    a fiber the request is accounted but completes immediately. *)

val total_bytes : t -> kind -> int
val total_ops : t -> kind -> int

val total_batches : t -> kind -> int
(** Doorbell count: single submits ring once each, batched submits ring
    once per batch. [total_ops / total_batches] is the mean submission
    width the device saw. *)

val throughput_series : t -> kind -> (float * float) list
(** [(second, MB/s)] samples over the run, bucketed per simulated 100ms. *)

val busy_fraction : t -> float
(** Mean channel utilisation since creation. Each channel saturates at
    100% even when deep queues or overlapping batches book it past the
    current virtual time. *)
