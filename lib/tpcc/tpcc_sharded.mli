(** TPC-C over a {!Phoebe_shard.Cluster}: warehouses range-partitioned
    across shards, the spec's own cross-warehouse rates (1% per NewOrder
    order line, 15% of Payment customers — together roughly 10% of
    NewOrder/Payment transactions touching a second warehouse) routed
    through two-phase commit whenever the second warehouse lives on
    another shard, and an open-loop arrival driver on top.

    Each shard holds [warehouses_per_shard] local warehouses (ids
    1..wps within the shard); global warehouse [g] (1-based) lives on
    shard [(g-1)/wps]. There is one NewOrder body and one Payment body,
    {!Tpcc}'s own: run on the home shard's part with a
    {!Tpcc.placement} that keeps same-shard warehouses local and ships
    each statement for another shard's warehouse ({!Tpcc.stmt}) to one
    registered cluster procedure, which runs it with {!Tpcc.run_stmt}. *)

type t

val create :
  Phoebe_shard.Cluster.t ->
  ?scale:Tpcc.scale ->
  warehouses_per_shard:int ->
  seed:int ->
  unit ->
  t
(** Load every shard (shard [k] seeded with [seed + k]) and register
    the cross-shard procedures. Call once per cluster, before any
    traffic — procedure ids are positional. *)

val ddl : warehouses_per_shard:int -> scale:Tpcc.scale -> seed:int -> int -> Phoebe_core.Db.t -> unit
(** DDL-only shard loader in {!Phoebe_shard.Cluster.recover}'s [ddl]
    shape: recreates the nine tables and ten indexes without data. *)

val cluster : t -> Phoebe_shard.Cluster.t
val part : t -> int -> Tpcc.t
(** Shard [k]'s loaded TPC-C instance. *)

val warehouses_per_shard : t -> int
val total_warehouses : t -> int

val locate : t -> int -> int * int
(** [locate t g] is [(shard, shard-local warehouse id)] of global
    warehouse [g]. *)

(** {1 Transaction bodies} *)

val new_order : t -> Phoebe_shard.Cluster.dtxn -> Phoebe_util.Prng.t -> home_g:int -> unit
(** {!Tpcc.new_order} homed at global warehouse [home_g]; runs inside a
    {!Phoebe_shard.Cluster.submit_dtxn} body. The 1% invalid-item case
    raises {!Phoebe_txn.Txnmgr.Abort} with reason [User] (no retry). *)

val payment : t -> Phoebe_shard.Cluster.dtxn -> Phoebe_util.Prng.t -> home_g:int -> unit
(** {!Tpcc.payment} homed at global warehouse [home_g]. *)

val placement : t -> Phoebe_shard.Cluster.dtxn -> home_g:int -> Tpcc.placement
(** The placement both bodies run with: [local] holds the home shard's
    warehouses, [remote] counts one {!cross_shard_statements} and runs
    the statement on the warehouse's shard through
    {!Phoebe_shard.Cluster.remote_exec}. *)

val encode_stmt : w_id:int -> Tpcc.stmt -> Phoebe_storage.Value.t array
(** The wire form of a statement for local warehouse [w_id] of the
    target shard. *)

val decode_stmt : Phoebe_storage.Value.t array -> int * Tpcc.stmt
(** Inverse of {!encode_stmt}: [(w_id, stmt)]. Raises [Invalid_argument]
    on a malformed array. *)

(** {1 Open-loop driver} *)

type results = {
  duration_s : float;
  offered : int;  (** open-loop arrivals offered *)
  admitted : int;
  shed : int;  (** refused by per-shard admission control — no retry *)
  completed : int;
  committed : int;
  new_orders : int;
  tpmc : float;
  cross_shard_started : int;  (** global txns that enlisted a remote shard *)
  cross_shard_committed : int;
  cross_shard_aborted : int;
  prepare_timeouts : int;
  exec_timeouts : int;
  latency_p50_us : float;  (** arrival → completion, virtual time *)
  latency_p99_us : float;
}

val run_open :
  t ->
  ?mix:(Tpcc.txn_kind * float) list ->
  ?theta:float ->
  shape:Phoebe_workload.Open_loop.shape ->
  duration_ns:int ->
  seed:int ->
  unit ->
  results
(** Drive open-loop arrivals (warehouse choice Zipf-skewed with
    [theta], default 0.6) for a virtual-time window and drain the
    cluster to quiescence. NewOrder and Payment go through
    {!Phoebe_shard.Cluster.submit_dtxn}; the read-heavy kinds stay
    single-shard. Coordinator spans carry their TPC-C kind
    ({!Tpcc.span_kind}); participant branches stay kind 0. *)

val cross_shard_statements : t -> int
(** Remote statements shipped so far (lifetime of [t]). *)
