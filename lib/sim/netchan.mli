(** Simulated point-to-point network fabric between [nodes] peers on
    one discrete-event engine.

    Every ordered (src, dst) pair is an independent full-duplex link
    with one-way propagation latency and finite bandwidth. A message
    occupies its link for its serialization time (bytes at the link
    rate) — back-to-back sends on the same link queue behind each
    other, so a saturated link shows up as delivery delay — and then
    arrives [latency_ns] later. Delivery order per link is FIFO;
    everything is deterministic virtual time. The fabric is also the
    one place that decides whether a message is lost: per-node
    partitions, then i.i.d. loss from a seeded PRNG. Both the sharded
    cluster ([Phoebe_shard.Net]) and the quorum group send through it. *)

type t

val create : ?drop_p:float -> ?seed:int -> Engine.t -> nodes:int -> latency_ns:int -> gbps:float -> t
(** [gbps] is link bandwidth in gigabits per second. [drop_p] is the
    per-message loss probability (default 0), drawn from a PRNG seeded
    with [seed]. *)

val send : t -> src:int -> dst:int -> bytes:int -> (unit -> unit) -> unit
(** Charge [bytes] of serialization on the (src, dst) link and schedule
    the delivery callback at the arrival instant — unless the message is
    lost: dropped without a charge when either endpoint is partitioned,
    else when the loss draw fires (one draw per message, taken only when
    [drop_p > 0]). *)

val set_partitioned : t -> node:int -> bool -> unit
(** While set, every message to or from [node] is dropped. *)

(** {1 Introspection} *)

val msgs : t -> int
val bytes : t -> int

val dropped : t -> int
(** Messages lost to a partition or to the loss draw. *)

val utilization : t -> float
(** Busy fraction of the *hottest* directed link since creation — the
    number that says "the network is the bottleneck" when it
    approaches 1. *)
