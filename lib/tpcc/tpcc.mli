(** TPC-C implemented against the PhoebeDB kernel API, the way the paper
    runs it: transactions as server-side procedures (no SQL front end),
    the standard five-transaction mix, warehouses optionally bound to
    workers (the paper's workload affinity).

    Cardinalities are scaled down from the spec (the spec's 100k items /
    3k customers per district would dominate simulation load time without
    changing any of the evaluated shapes); the scale lives in {!scale}
    and is reported by every harness. *)

type scale = {
  districts_per_warehouse : int;  (** spec: 10 *)
  customers_per_district : int;  (** spec: 3000 *)
  items : int;  (** spec: 100000 *)
  initial_orders_per_district : int;  (** spec: 3000 *)
}

val default_scale : scale
(** 10 districts × 60 customers, 1000 items, 30 preloaded orders. *)

val spec_scale : scale

type t
(** A loaded TPC-C database. *)

exception Rollback
(** The spec-mandated 1% NewOrder user rollback (invalid item). Not an
    MVCC abort: runners must not retry it. *)

val load :
  Phoebe_core.Db.t -> ?load_data:bool -> warehouses:int -> scale:scale -> seed:int -> unit -> t
(** Create the nine tables + ten indexes and bulk-load them (outside
    virtual time, like a restored backup). [load_data:false] creates the
    DDL only — the shape crash recovery needs before replaying a WAL. *)

val db : t -> Phoebe_core.Db.t
val warehouses : t -> int

type txn_kind = New_order | Payment | Order_status | Delivery | Stock_level

val kind_name : txn_kind -> string

val standard_mix : (txn_kind * float) list
(** 45 / 43 / 4 / 4 / 4, the TPC-C §5.2.3 minimum mix. *)

(** {1 Individual transactions (usable directly in tests)}

    Each takes an open transaction and performs the procedure body;
    MVCC conflicts raise {!Phoebe_txn.Txnmgr.Abort} as usual. [rng]
    drives the input generation (NURand etc.). *)

(** The two cross-warehouse statements: NewOrder's stock update for an
    order line supplied by another warehouse, and Payment's customer
    update plus history row for a customer of another warehouse. *)
type customer = By_id of int | By_name of string

type stmt =
  | Stock_line of { i_id : int; qty : int }
  | Pay_customer of { d_id : int; customer : customer; amount : float; h_d_id : int; h_w_id : int }
      (** [h_d_id]/[h_w_id]: the paying district and warehouse (global id) *)

val run_stmt : t -> Phoebe_core.Table.txn -> w_id:int -> stmt -> string
(** Run [stmt] against local warehouse [w_id] on behalf of a transaction
    homed at another warehouse. Returns the stock line's S_DIST_xx, [""]
    for a Payment customer. *)

type placement = {
  total_warehouses : int;  (** across every part *)
  home : int;  (** global id of the home warehouse *)
  local : int -> int option;  (** a global id's local id, [None] when another part holds it *)
  remote : int -> stmt -> string;  (** run a statement for global warehouse [g] on its part *)
}
(** Where the warehouses live when one {!t} holds only some of them.
    Without a placement a body sees exactly this {!t}'s warehouses, ids
    being global. With one, [w_id] is the home warehouse's local id,
    cross-warehouse draws range over [total_warehouses], and a statement
    for a warehouse [local] does not hold goes through [remote]. *)

val new_order : ?at:placement -> t -> Phoebe_core.Table.txn -> Phoebe_util.Prng.t -> w_id:int -> unit
(** 1% of order lines request an invalid item and roll back, per spec.
    O_ALL_LOCAL is always written as 1. *)

val payment : ?at:placement -> t -> Phoebe_core.Table.txn -> Phoebe_util.Prng.t -> w_id:int -> unit
val order_status : t -> Phoebe_core.Table.txn -> Phoebe_util.Prng.t -> w_id:int -> unit
val delivery : t -> Phoebe_core.Table.txn -> Phoebe_util.Prng.t -> w_id:int -> unit
val stock_level : t -> Phoebe_core.Table.txn -> Phoebe_util.Prng.t -> w_id:int -> unit

val run_txn :
  ?at:placement -> t -> txn_kind -> Phoebe_core.Table.txn -> Phoebe_util.Prng.t -> w_id:int -> unit
(** The body of [kind]; only NewOrder and Payment use [at]. *)

(** {1 Mix driver} *)

val pick_kind : Phoebe_util.Prng.t -> (txn_kind * float) list -> txn_kind
(** One draw from a mix of (kind, probability) pairs. *)

val span_kind : txn_kind -> int
(** The trace span kind of a TPC-C transaction, 1..5; 0 stays the
    generic "other" kind. *)

val label_spans : Phoebe_core.Db.t -> unit
(** Name the five span kinds on the database's tracer (no-op untraced). *)

type results = {
  duration_s : float;  (** virtual seconds *)
  new_orders : int;  (** committed NewOrder transactions *)
  total_committed : int;
  aborted : int;
  deadline_aborts : int;  (** aborts the driver saw end with reason [Deadline] *)
  sheds : int;  (** submissions refused by admission control ({!Phoebe_core.Db.Overloaded}) *)
  tpmc : float;  (** committed NewOrders per virtual minute *)
  tpm_total : float;
  latency_p50_us : float;
  latency_p99_us : float;
  per_kind : (txn_kind * int) list;
}

val run_mix :
  t ->
  ?affinity:bool ->
  ?mix:(txn_kind * float) list ->
  concurrency:int ->
  duration_ns:int ->
  seed:int ->
  unit ->
  results
(** Keep [concurrency] transactions outstanding (HammerDB virtual users
    with zero think time) for a virtual-time window. [affinity] (default
    true) pins each virtual user's home warehouse to a worker. Each user
    submits through {!Phoebe_core.Db.submit}: when admission control
    sheds the submission or the transaction aborts on its deadline, the
    user retries with exponential backoff in virtual time (100 µs
    doubling to 10 ms) instead of re-offering the load immediately. *)

val throughput_series : t -> (float * float) list
(** (second, committed txns in that second) samples from the last
    [run_mix], for the Exp 1/4 over-time plots. *)

(** {1 Consistency (TPC-C §3.3.2)} *)

val consistency_checks : t -> (string * bool) list
(** The four standard consistency conditions plus order-line counts;
    all must hold after any run. *)
