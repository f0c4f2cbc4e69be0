(* Layer probes: host ns per call of public kernel functions, measured
   with Bechamel (OLS over the monotonic clock). Inputs are shaped like
   the TPC-C hot path: composite (w,d,o) keys into a ~10k-entry index,
   stock rows, NewOrder's four-column stock update as a WAL record, a
   cross-shard stock [Msg.Exec], and a 4-deep undo chain.

   Probes supersede bench/main.ml's [micro] suite. *)

open Bechamel
open Toolkit
module Value = Phoebe_storage.Value
module Pax = Phoebe_storage.Pax
module Bufmgr = Phoebe_storage.Bufmgr
module Engine = Phoebe_sim.Engine
module Scheduler = Phoebe_runtime.Scheduler
module Index_tree = Phoebe_btree.Index_tree
module Record = Phoebe_wal.Record
module Clock = Phoebe_txn.Clock
module Undo = Phoebe_txn.Undo
module Mvcc = Phoebe_txn.Mvcc
module Msg = Phoebe_shard.Msg
module Stats = Phoebe_util.Stats

let stock_schema =
  Value.Schema.make
    [
      ("s_i_id", Value.T_int); ("s_w_id", Value.T_int); ("s_quantity", Value.T_int); ("s_dist", Value.T_str);
      ("s_ytd", Value.T_int); ("s_order_cnt", Value.T_int); ("s_remote_cnt", Value.T_int); ("s_data", Value.T_str);
    ]

let stock_row i =
  Value.
    [|
      Int i; Int 1; Int (10 + (i mod 90)); Str "dist-info-abcdefgh"; Int 0; Int 0; Int 0;
      Str "original-data-xyz";
    |]

(* NewOrder's stock update: quantity, ytd, order count, remote count. *)
let stock_update q = Value.[| (2, Int q); (4, Int (q * 3)); (5, Int 7); (6, Int 0) |]

let order_key i = Index_tree.encode_key Value.[ Int (1 + (i mod 2)); Int (1 + (i / 2 mod 10)); Int (i / 20) ]

(* Cycles through [n] precomputed inputs so no probe hits one cache line. *)
let cycle n =
  let i = ref 0 in
  fun () ->
    i := (!i + 1) land (n - 1);
    !i

let event () =
  let eng = Engine.create () in
  fun () ->
    Engine.schedule eng ~delay:0 (fun () -> ());
    Engine.run eng

let park_wake () =
  let eng = Engine.create () in
  let sched = Scheduler.create eng { Scheduler.default_config with n_workers = 1; slots_per_worker = 1 } in
  let task () =
    ignore
      (Scheduler.park ~urgency:Scheduler.High ~phase:Phoebe_obs.Trace.Io_wait (fun w ->
           Engine.schedule eng ~delay:0 (fun () -> ignore (Scheduler.wake_waiter w Scheduler.Signalled))))
  in
  fun () ->
    Scheduler.submit sched task;
    Scheduler.run_until_quiescent sched

let stock_page () =
  let p = Pax.create stock_schema ~capacity:64 in
  for i = 1 to 64 do
    ignore (Pax.append p ~row_id:i (stock_row i))
  done;
  p

let resolve_hot () =
  let eng = Engine.create () in
  let store = Phoebe_io.Pagestore.create (Phoebe_io.Device.create eng ~name:"data" Phoebe_io.Device.pm9a3) in
  let codec = { Bufmgr.encode = Pax.encode; decode = Pax.decode; size = Pax.size_bytes } in
  let pool = Bufmgr.create eng ~store ~partitions:1 ~budget_bytes:(64 * 1024 * 1024) ~codec in
  let swip = Bufmgr.swip_of (Bufmgr.alloc pool ~partition:0 (stock_page ())) in
  fun () -> ignore (Bufmgr.resolve pool swip)

let pax_get () =
  let page = stock_page () in
  let scratch = Array.make 8 (Value.Int 0) in
  let next = cycle 64 in
  fun () -> Pax.get_into page ~slot:(next ()) scratch

let index_lookup () =
  let ix = Index_tree.create ~name:"orders_pk" ~unique:true () in
  for i = 0 to 9_999 do
    Index_tree.insert ix ~key:(order_key i) ~rid:i
  done;
  let keys = Array.init 1024 (fun i -> order_key (i * 9 mod 10_000)) in
  let next = cycle 1024 in
  fun () -> ignore (Index_tree.lookup_first ix ~key:keys.(next ()))

let index_insert_delete () =
  let ix = Index_tree.create ~name:"orders_pk" ~unique:true () in
  for i = 0 to 9_999 do
    Index_tree.insert ix ~key:(order_key i) ~rid:i
  done;
  let keys = Array.init 1024 (fun i -> order_key (10_000 + i)) in
  let next = cycle 1024 in
  fun () ->
    let k = keys.(next ()) in
    Index_tree.insert ix ~key:k ~rid:1;
    ignore (Index_tree.delete ix ~key:k ~rid:1)

let encode_key () =
  let next = cycle 1024 in
  fun () -> ignore (Index_tree.encode_key Value.[ Int 2; Int 7; Int (3000 + next ()) ])

let chain4 =
  let xid = Clock.xid_of_start_ts 1000 in
  let rec build i prev =
    if i = 0 then prev
    else begin
      let u = Undo.make ~table_id:9 ~rid:77 ~kind:(Undo.Updated (stock_update i)) ~sts:(100 + i) ~xid ~slot:0 ~prev in
      u.Undo.ets <- 100 + i + 1;
      build (i - 1) (Some u)
    end
  in
  build 4 None

let visibility ~snapshot () =
  let row = stock_row 77 in
  fun () ->
    ignore
      (Mvcc.visible_version ~xid:(Clock.xid_of_start_ts 7) ~snapshot ~current:row ~deleted_in_page:false
         ~head:chain4)

let undo_make () =
  let xid = Clock.xid_of_start_ts 5000 in
  let kind = Undo.Updated (stock_update 5) in
  fun () -> Undo.release (Undo.make ~table_id:9 ~rid:77 ~kind ~sts:10 ~xid ~slot:0 ~prev:None)

let record = { Record.slot = 3; lsn = 4242; gsn = 9999; op = Record.Update { table = 9; rid = 1234; cols = stock_update 42 } }

let record_encode () =
  let buf = Buffer.create 64 in
  fun () ->
    Buffer.clear buf;
    Record.encode buf record

let record_decode () =
  let buf = Buffer.create 64 in
  Record.encode buf record;
  let bytes = Buffer.to_bytes buf in
  fun () -> ignore (Record.decode bytes 0)

let hist_add () =
  let h = Stats.Histogram.create () in
  let next = cycle 1024 in
  fun () -> Stats.Histogram.add h (1000 + (next () * 977))

let msg = { Msg.gxid = 123456; src = 0; dst = 1; payload = Msg.Exec { proc = 0; args = Value.[| Int 2; Int 777; Int 5 |] } }
let msg_encode () = fun () -> ignore (Msg.encode msg)

let msg_decode () =
  let bytes = Msg.encode msg in
  fun () -> ignore (Msg.decode bytes)

(* Metric name → probe. Fixtures are built once, outside the timed loop. *)
let all =
  [
    ("sim.host_ns_event", event);
    ("runtime.host_ns_park_wake", park_wake);
    ("storage.host_ns_resolve_hot", resolve_hot);
    ("storage.host_ns_pax_get", pax_get);
    ("btree.host_ns_index_lookup", index_lookup);
    ("btree.host_ns_index_insert_delete", index_insert_delete);
    ("btree.host_ns_encode_key", encode_key);
    ("txn.host_ns_visibility_hit", visibility ~snapshot:1_000_000);
    ("txn.host_ns_visibility_walk4", visibility ~snapshot:1);
    ("txn.host_ns_undo_make", undo_make);
    ("wal.host_ns_record_encode", record_encode);
    ("wal.host_ns_record_decode", record_decode);
    ("obs.host_ns_hist_add", hist_add);
    ("shard.host_ns_msg_encode", msg_encode);
    ("shard.host_ns_msg_decode", msg_decode);
  ]

let estimate ~quota (name, make) =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (Test.make ~name (Staged.stage (make ()))) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let ns = Hashtbl.fold (fun _ r acc -> match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> acc) results nan in
  (name, ns)

(* [quota] is the Bechamel time budget per probe, in seconds. *)
let run ~quota = List.map (estimate ~quota) all
