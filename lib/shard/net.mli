(** The cluster's view of the network: {!Phoebe_sim.Netchan} (latency,
    bandwidth, FIFO links, deterministic PRNG message loss and per-shard
    partitions) plus per-shard delivery handlers. Messages are
    {!Msg.t}s, encoded at send and decoded at delivery so byte charges
    are honest. *)

type config = {
  drop_p : float;  (** per-message drop probability (deterministic PRNG) *)
  seed : int;  (** drop-draw seed *)
}
(** What callers vary. Every link has a 50 µs one-way latency and
    10 Gb/s of bandwidth. *)

val default_config : config
(** No loss, seed 7. *)

type t

val create : ?obs:Phoebe_obs.Obs.t -> Phoebe_sim.Engine.t -> nodes:int -> config -> t
(** With [obs], registers [net.msgs], [net.bytes], [net.dropped] and
    [net.utilization] (hottest-link busy fraction). *)

val set_handler : t -> node:int -> (Msg.t -> unit) -> unit

val send : t -> Msg.t -> unit
(** Fire-and-forget: the message is delivered to the destination's
    handler after serialization + latency, or silently dropped when
    either endpoint is partitioned or the loss draw fires. *)

val set_partitioned : t -> node:int -> bool -> unit
(** A partitioned shard neither sends nor receives until healed. *)

val msgs : t -> int
val bytes : t -> int
val dropped : t -> int
val utilization : t -> float
