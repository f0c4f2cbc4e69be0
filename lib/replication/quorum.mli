(** Quorum-replicated commit with automated failover (the paper's
    future-work item 2): the only log-shipping path in the kernel.

    A group is one primary plus [replicas] followers, all simulated on
    one discrete-event engine. The primary serialises its durable WAL
    into a single totally ordered stream of chunks — records of each
    durable-frontier sweep ("pull") merged across writer files by GSN,
    the cross-slot order crash recovery replays in — and ships it to
    every follower over a lossy, partitionable fabric. A follower
    journals received chunks on its own fault-injected mirror device
    and acknowledges its contiguously *durable* stream prefix: an ack
    is a durability vote, not a delivery receipt. Pull boundaries are
    barriers: followers apply only whole pulls (so mid-transaction
    prefixes are never visible), quorum-ack targets land on barriers,
    and promotion truncates to the last durable barrier.

    Commit visibility on the primary is gated on the quorum: after the
    local WAL wait, a writing transaction parks until a majority of the
    group (primary included) is durable up to the stream end its
    records landed in — installed via {!Phoebe_txn.Txnmgr.set_commit_barrier}.

    Failover is automatic: followers detect primary silence on
    deterministically staggered timeouts and elect the replica with the
    longest durable stream prefix (single-integer comparison; one vote
    per view; majority of the full group size). Quorum intersection
    makes the winner's durable prefix contain every quorum-acknowledged
    commit, so truncating to its last durable barrier never discards an
    acknowledged write. The winner resolves in-doubt prepared runs like
    crash recovery, refuses loudly (Bug) if committed operations
    reference rows that never arrived, and announces the new view;
    followers whose stream diverged past the new history truncate or
    rebuild from scratch. *)

type config = {
  replicas : int;  (** followers; group size is [replicas + 1] *)
  latency_ns : int;  (** one-way fabric latency *)
  gbps : float;  (** per-link fabric bandwidth *)
  drop_p : float;  (** i.i.d. message-drop probability ({!Phoebe_sim.Netchan}) *)
  net_seed : int;  (** PRNG seed for message drops *)
  poll_interval_ns : int;  (** primary pull/ship/heartbeat tick *)
  election_timeout_ns : int;  (** base primary-silence timeout *)
  retransmit_timeout_ns : int;  (** go-back-N rewind after no ack progress *)
  staleness_bound_ns : int;  (** default follower-read staleness bound *)
}

val default_config : config
(** 2 replicas, 50 µs / 10 Gb/s links, no drops, 200 µs ticks, 10 ms
    election timeout, 1 ms retransmit, 5 ms staleness bound. *)

exception Stale_read of { node : int; staleness_ns : int; bound_ns : int }

type t

val create :
  ?group:config ->
  ?decide_in_doubt:(Phoebe_wal.Recovery.in_doubt -> bool) ->
  Phoebe_core.Config.t ->
  ddl:(Phoebe_core.Db.t -> unit) ->
  t
(** Build the group on a fresh engine: [replicas + 1] database
    instances created with the same [Config.t] and [ddl] (same tables,
    same creation order), per-node mirror devices (inheriting the
    config's fault injection under distinct seeds), and node 0 as the
    initial primary of view 1. [decide_in_doubt] resolves prepared-but-
    undecided branch transactions at promotion and catch-up replay,
    like crash recovery (default: presumed abort). *)

(** {1 Topology and progress} *)

val engine : t -> Phoebe_sim.Engine.t
val obs : t -> Phoebe_obs.Obs.t

val nodes : t -> int
(** Group size, [replicas + 1]. Node ids are [0 .. nodes - 1]. *)

val majority : t -> int

val view : t -> int
(** Highest view any node has entered. *)

val primary : t -> int option
(** The live primary of the highest view, if any (None mid-failover). *)

val primary_db : t -> Phoebe_core.Db.t option
val db : t -> node:int -> Phoebe_core.Db.t
val is_alive : t -> node:int -> bool

val durable_off : t -> node:int -> int
(** Contiguously durable stream bytes on [node]'s mirror. *)

val stream_len : t -> int
(** Current primary's stream length (0 if no primary). *)

val net_utilization : t -> float
(** Busy fraction of the hottest fabric link. *)

val mirror_utilization : t -> node:int -> float
(** Busy fraction of [node]'s mirror journal device. *)

val run_for : t -> ns:int -> unit
(** Advance the shared engine by [ns] of virtual time. (The group's
    tick and failure-detection loops reschedule themselves forever, so
    drive it with bounded runs, not run-to-quiescence.) *)

val shutdown : t -> unit
(** Stop all group loops and drop all traffic (end of experiment). *)

(** {1 Fault injection} *)

val kill : t -> node:int -> unit
(** Permanent process kill: the node stops serving, drops off the
    fabric, and its in-flight commit waits never resume — exactly the
    transactions no client ever saw acknowledged. Killing the primary
    triggers an election once followers time out. *)

val set_partitioned : t -> node:int -> bool -> unit
(** Heal-able network partition: while set, all messages to and from
    [node] are dropped. *)

val restart_follower : t -> node:int -> unit
(** Follower process restart: volatile stream state past the last
    durable pull barrier is lost, and the surviving journaled prefix is
    re-applied into a fresh instance through the same streaming applier
    the follower runs live ({!Phoebe_wal.Recovery}'s run machine and
    apply order). A prepared branch whose decision has not arrived stays
    in doubt, so its later Commit or Abort applies as on every other
    node. The follower then re-syncs from the primary via the normal
    ack-rewind rule. *)

(** {1 Follower reads} *)

val staleness_ns : t -> node:int -> int
(** Upper bound on how far [node]'s applied state trails the primary's
    durable state, in virtual ns (0 on the primary itself). *)

val follower_read : ?max_staleness_ns:int -> t -> node:int -> (Phoebe_core.Table.txn -> 'a) -> 'a
(** Run a read-only transaction on [node] if its staleness is within
    the bound (default [staleness_bound_ns]).
    @raise Stale_read otherwise. *)

(** {1 Recovery oracle} *)

val replay_durable_prefix : t -> node:int -> into:Phoebe_core.Db.t -> unit
(** Replay [node]'s durable barrier-aligned stream prefix into [into]
    (a fresh same-DDL instance) through the crash-recovery path — what
    an independent recovery of that node's journal would reconstruct.
    Property tests compare this against the promoted primary. *)

(** {1 Introspection}

    [create] registers these on the group's registry: counters
    [quorum.ship_msgs] / [quorum.acks] / [quorum.retransmits] /
    [quorum.elections] / [quorum.view_changes] / [quorum.commit_waits] /
    [quorum.follower_reads] / [quorum.stale_reads] / [quorum.rebuilds],
    gauges [quorum.view] / [quorum.net_dropped] (messages the fabric
    lost to a partition, a killed node or the loss draw) /
    [quorum.net_msgs] / [quorum.net_bytes], plus per-mirror device accounting
    ([io.mirror<i>.*]). *)
