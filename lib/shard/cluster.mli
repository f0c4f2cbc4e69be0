(** A cluster of K independent engine shards behind one façade.

    Each shard is a full {!Phoebe_core.Db.t} — its own WAL, buffer
    pool, scheduler slots, admission controller — created on one shared
    simulation engine, so a K-shard cluster is still one deterministic
    virtual timeline. Shards exchange {!Msg.t}s over a {!Net.t} fabric
    with latency, bandwidth, and (optionally) loss and partitions.

    Cross-shard transactions run two-phase commit with presumed abort:
    the coordinator executes its local branch in an ordinary
    transaction, ships remote statements ({!remote_exec}) to registered
    procedures on participant shards, and at commit runs
    Prepare/vote/decide. The global transaction id is the coordinator's
    local xid, so the coordinator's own commit record *is* the durable
    global decision — there is no separate decision log. A participant
    branch that crashed between Prepare and the decision comes back
    in-doubt and is resolved against the coordinator's log in
    {!recover}.

    Failure rules:
    - exec or prepare silence past the message timeout → coordinator
      aborts (presumed abort); this timeout is also the cross-shard
      deadlock breaker, since per-shard wait-for graphs cannot see
      cycles that close over the network;
    - an in-doubt participant polls the coordinator with [Status_req]
      until it learns the durable decision, so lost decide messages
      only delay, never wedge;
    - a [Status_req] for an unknown gxid answers abort. *)

type t

val create :
  ?net:Net.config ->
  ?msg_timeout_ns:int ->
  ?decision_poll_ns:int ->
  Phoebe_sim.Engine.t ->
  shards:int ->
  Phoebe_core.Config.t ->
  t
(** [create eng ~shards:k cfg] builds [k] shards via
    {!Phoebe_core.Db.create_on}, each from [cfg] with per-shard fault
    seeds (when [cfg.faults] is set), linked by a fresh fabric.
    [msg_timeout_ns] (default 10 ms) bounds exec-reply and prepare-vote
    waits; [decision_poll_ns] (default 5 ms) is the in-doubt branch's
    status-poll cadence. *)

val shards : t -> int
val shard : t -> int -> Phoebe_core.Db.t
val engine : t -> Phoebe_sim.Engine.t

val obs : t -> Phoebe_obs.Obs.t
(** The cluster-level registry: [twopc.*] protocol counters and the
    fabric's [net.*] metrics. Per-shard registries live on the shards. *)

val net : t -> Net.t

(** {1 Cross-shard transactions} *)

type proc = shard:int -> Phoebe_core.Db.t -> Phoebe_core.Table.txn -> Phoebe_storage.Value.t array -> Phoebe_storage.Value.t array
(** A registered procedure: the remote statement unit. Runs inside the
    participant's branch transaction; may raise
    {!Phoebe_txn.Txnmgr.Abort} to vote the branch down. *)

val register_proc : t -> proc -> int
(** Returns the procedure id used in {!remote_exec}. Register in the
    same order on every run — ids are positional. *)

type dtxn
(** Coordinator-side handle for one global transaction, valid inside a
    {!submit_dtxn} body. *)

val dtxn_txn : dtxn -> Phoebe_core.Table.txn
(** The coordinator's local branch transaction — use it for all
    home-shard reads and writes. *)

val remote_exec : t -> dtxn -> shard:int -> proc:int -> args:Phoebe_storage.Value.t array -> Phoebe_storage.Value.t array
(** Run procedure [proc] on [shard] inside the global transaction,
    blocking the coordinator fiber until the reply. On the home shard
    this is a plain local call (no network, no enlistment). Raises
    {!Phoebe_txn.Txnmgr.Abort} if the remote branch aborts or the reply
    times out. *)

val submit_dtxn :
  ?affinity:int -> ?on_done:(committed:bool -> unit) -> t -> home:int -> (dtxn -> unit) -> unit
(** Submit a (potentially) cross-shard transaction coordinated by shard
    [home]. The body runs inside a local transaction on [home]; if it
    called {!remote_exec} on other shards, commit runs two-phase commit
    (prepare → votes → local commit = durable decision → decide
    messages). A body that never leaves [home] commits as a plain local
    transaction. Admission control applies at [home]'s front door
    ({!Phoebe_core.Db.Overloaded} propagates to the caller). Transient
    aborts are retried by the runner with a fresh gxid. *)

val submit_local :
  ?affinity:int ->
  ?on_done:(unit -> unit) ->
  t ->
  shard:int ->
  (Phoebe_core.Table.txn -> unit) ->
  unit
(** Single-shard fast path: exactly {!Phoebe_core.Db.submit} on that
    shard. *)

(** {1 Driving} *)

val run : t -> unit
(** Drive the shared engine until the whole cluster is quiescent. *)

val run_for : t -> ns:int -> unit
(** Advance virtual time by [ns], then stop — possibly mid-transaction
    (the intended crash point). *)

(** {1 Statistics} *)

type stats = {
  started : int;  (** global transactions that enlisted ≥1 remote shard *)
  committed : int;
  aborted : int;
  prepare_timeouts : int;
  exec_timeouts : int;
  branches_prepared : int;
  branches_committed : int;
  branches_aborted : int;
  status_polls : int;
  net_msgs : int;
  net_bytes : int;
  net_dropped : int;
}

val stats : t -> stats

val registry_json : t -> (string * Phoebe_util.Json.t) list
(** The cluster's observability plane as one flat key space: the
    cluster registry ([twopc.*], [net.*]), [cluster.*] rollups summed
    across shards, and every shard's full registry under
    [shard.<k>.*]. Deterministic ordering. *)

(** {1 Failure injection} *)

val set_partitioned : t -> shard:int -> bool -> unit
val set_drop_decides : t -> bool -> unit
(** Test hook: suppress outgoing decide messages, leaving participants
    in-doubt (they stay parked, polling an unreachable answer, until
    crash). *)

val set_hold_before_decide : t -> bool -> unit
(** Test hook: freeze coordinators after all votes arrive but before
    the decision is logged — the classic 2PC crash window. *)

(** {1 Crash and recovery} *)

val crash : ?tear:Phoebe_util.Prng.t -> t -> Phoebe_core.Db.crash_report array
(** Whole-cluster power loss (the engine is shared, so the failure unit
    is the cluster). The handle is dead afterwards except as the [old]
    argument of {!recover}. *)

type recovery_report = {
  shard_reports : Phoebe_wal.Recovery.report array;
  in_doubt_txns : int;  (** prepared-but-undecided branches found *)
  in_doubt_committed : int;  (** resolved commit from the coordinator's log *)
  in_doubt_aborted : int;  (** presumed abort *)
  in_doubt_ops_applied : int;
}

val recover :
  ?net:Net.config -> t -> ddl:(int -> Phoebe_core.Db.t -> unit) -> t * recovery_report
(** Restart every shard on its surviving stores: attach a fresh
    instance per shard, run [ddl k db] (must recreate tables in their
    original order), redo-replay each WAL, then resolve in-doubt
    branches against their coordinator's recovered log. Returns the new
    cluster (fresh fabric and protocol state, same engine and config)
    and the resolution tally. *)
