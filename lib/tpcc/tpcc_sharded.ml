module Value = Phoebe_storage.Value
module Txnmgr = Phoebe_txn.Txnmgr
module Scheduler = Phoebe_runtime.Scheduler
module Engine = Phoebe_sim.Engine
module Zipf = Phoebe_util.Zipf
module Stats = Phoebe_util.Stats
module Cluster = Phoebe_shard.Cluster
module Open_loop = Phoebe_workload.Open_loop

type t = {
  cl : Cluster.t;
  parts : Tpcc.t array;
  wps : int;
  proc_stmt : int;
  mutable cross_offered : int;
}

let cluster t = t.cl
let part t k = t.parts.(k)
let warehouses_per_shard t = t.wps
let total_warehouses t = t.wps * Cluster.shards t.cl

(* global warehouse id (1-based) → (shard, shard-local warehouse id) *)
let locate t g = ((g - 1) / t.wps, ((g - 1) mod t.wps) + 1)

let ddl ~warehouses_per_shard ~scale ~seed k db =
  ignore (Tpcc.load db ~load_data:false ~warehouses:warehouses_per_shard ~scale ~seed:(seed + k) ())

(* ------------------------------------------------------------------ *)
(* Wire form of a cross-warehouse statement: the target shard's local
   warehouse id, a tag, then the statement's fields. *)

let encode_stmt ~w_id : Tpcc.stmt -> Value.t array = function
  | Tpcc.Stock_line { i_id; qty } -> [| Value.Int w_id; Value.Int 0; Value.Int i_id; Value.Int qty |]
  | Tpcc.Pay_customer { d_id; customer; amount; h_d_id; h_w_id } ->
    let customer = match customer with Tpcc.By_id c -> Value.Int c | Tpcc.By_name last -> Value.Str last in
    [| Value.Int w_id; Value.Int 1; Value.Int d_id; customer; Value.Float amount; Value.Int h_d_id; Value.Int h_w_id |]

let decode_stmt : Value.t array -> int * Tpcc.stmt = function
  | [| Value.Int w_id; Value.Int 0; Value.Int i_id; Value.Int qty |] -> (w_id, Tpcc.Stock_line { i_id; qty })
  | [| Value.Int w_id; Value.Int 1; Value.Int d_id; customer; Value.Float amount; Value.Int h_d_id; Value.Int h_w_id |]
    ->
    let customer =
      match customer with
      | Value.Int c -> Tpcc.By_id c
      | Value.Str last -> Tpcc.By_name last
      | v -> invalid_arg ("Tpcc_sharded.decode_stmt: customer " ^ Value.to_string v)
    in
    (w_id, Tpcc.Pay_customer { d_id; customer; amount; h_d_id; h_w_id })
  | _ -> invalid_arg "Tpcc_sharded.decode_stmt: malformed statement"

let create cl ?(scale = Tpcc.default_scale) ~warehouses_per_shard ~seed () =
  if warehouses_per_shard <= 0 then invalid_arg "Tpcc_sharded.create: need at least one warehouse";
  let parts =
    Array.init (Cluster.shards cl) (fun k ->
        Tpcc.load (Cluster.shard cl k) ~warehouses:warehouses_per_shard ~scale ~seed:(seed + k) ())
  in
  (* the participant half: one procedure runs either statement *)
  let proc_stmt =
    Cluster.register_proc cl (fun ~shard _db txn args ->
        let w_id, stmt = decode_stmt args in
        [| Value.Str (Tpcc.run_stmt parts.(shard) txn ~w_id stmt) |])
  in
  { cl; parts; wps = warehouses_per_shard; proc_stmt; cross_offered = 0 }

(* ------------------------------------------------------------------ *)
(* Coordinator side: {!Tpcc}'s own bodies on the home shard's part. A
   warehouse on the home shard stays a plain local access, exactly like
   unsharded TPC-C; one on another shard is a {!Cluster.remote_exec}. *)

let placement t dtx ~home_g =
  let home_shard, _ = locate t home_g in
  {
    Tpcc.total_warehouses = total_warehouses t;
    home = home_g;
    local =
      (fun g ->
        let shard, w_id = locate t g in
        if shard = home_shard then Some w_id else None);
    remote =
      (fun g stmt ->
        let shard, w_id = locate t g in
        t.cross_offered <- t.cross_offered + 1;
        match Cluster.remote_exec t.cl dtx ~shard ~proc:t.proc_stmt ~args:(encode_stmt ~w_id stmt) with
        | [| Value.Str reply |] -> reply
        | _ -> invalid_arg "Tpcc_sharded: malformed statement reply");
  }

let run_dtxn t kind dtx rng ~home_g =
  let home_shard, w_id = locate t home_g in
  try Tpcc.run_txn ~at:(placement t dtx ~home_g) t.parts.(home_shard) kind (Cluster.dtxn_txn dtx) rng ~w_id
  with Tpcc.Rollback ->
    (* the spec's 1% invalid-item rollback; surfaced as a user abort so
       the runner neither retries nor counts it as an MVCC conflict *)
    raise (Txnmgr.Abort (Txnmgr.User, "user-initiated rollback"))

let new_order t dtx rng ~home_g = run_dtxn t Tpcc.New_order dtx rng ~home_g
let payment t dtx rng ~home_g = run_dtxn t Tpcc.Payment dtx rng ~home_g

(* ------------------------------------------------------------------ *)
(* Open-loop driver *)

type results = {
  duration_s : float;
  offered : int;
  admitted : int;
  shed : int;
  completed : int;
  committed : int;
  new_orders : int;
  tpmc : float;
  cross_shard_started : int;
  cross_shard_committed : int;
  cross_shard_aborted : int;
  prepare_timeouts : int;
  exec_timeouts : int;
  latency_p50_us : float;
  latency_p99_us : float;
}

let run_open t ?(mix = Tpcc.standard_mix) ?(theta = 0.6) ~shape ~duration_ns ~seed () =
  let eng = Cluster.engine t.cl in
  let start = Engine.now eng in
  let zipf = Zipf.create ~theta ~n:(total_warehouses t) () in
  let latency = Stats.Histogram.create () in
  let committed = ref 0 in
  let new_orders = ref 0 in
  let s0 = Cluster.stats t.cl in
  Array.iter (fun part -> Tpcc.label_spans (Tpcc.db part)) t.parts;
  let gen =
    Open_loop.start eng ~shape ~duration_ns ~seed ~submit:(fun ~rng ~on_done ->
        let home_g = 1 + Zipf.sample zipf rng in
        let home_shard, w_id = locate t home_g in
        let kind = Tpcc.pick_kind rng mix in
        let began = Engine.now eng in
        let finish ok =
          Stats.Histogram.add latency (Engine.now eng - began);
          if ok then begin
            incr committed;
            match kind with Tpcc.New_order -> incr new_orders | _ -> ()
          end;
          on_done ()
        in
        match kind with
        | Tpcc.New_order | Tpcc.Payment ->
          Cluster.submit_dtxn t.cl ~home:home_shard
            ~on_done:(fun ~committed:ok -> finish ok)
            (fun dtx ->
              Scheduler.span_kind (Tpcc.span_kind kind);
              run_dtxn t kind dtx rng ~home_g)
        | Tpcc.Order_status | Tpcc.Delivery | Tpcc.Stock_level ->
          (* single-warehouse kinds: never cross a shard, never roll back *)
          let ok = ref false in
          Cluster.submit_local t.cl ~shard:home_shard
            ~on_done:(fun () -> finish !ok)
            (fun txn ->
              Scheduler.span_kind (Tpcc.span_kind kind);
              Tpcc.run_txn t.parts.(home_shard) kind txn rng ~w_id;
              ok := true))
  in
  Cluster.run t.cl;
  let s1 = Cluster.stats t.cl in
  let elapsed_s = float_of_int (Engine.now eng - start) /. 1e9 in
  let minutes = elapsed_s /. 60.0 in
  {
    duration_s = elapsed_s;
    offered = Open_loop.offered gen;
    admitted = Open_loop.admitted gen;
    shed = Open_loop.shed gen;
    completed = Open_loop.completed gen;
    committed = !committed;
    new_orders = !new_orders;
    tpmc = (if minutes > 0.0 then float_of_int !new_orders /. minutes else 0.0);
    cross_shard_started = s1.Cluster.started - s0.Cluster.started;
    cross_shard_committed = s1.Cluster.committed - s0.Cluster.committed;
    cross_shard_aborted = s1.Cluster.aborted - s0.Cluster.aborted;
    prepare_timeouts = s1.Cluster.prepare_timeouts - s0.Cluster.prepare_timeouts;
    exec_timeouts = s1.Cluster.exec_timeouts - s0.Cluster.exec_timeouts;
    latency_p50_us = Stats.Histogram.percentile latency 0.5 /. 1e3;
    latency_p99_us = Stats.Histogram.percentile latency 0.99 /. 1e3;
  }

let cross_shard_statements t = t.cross_offered
