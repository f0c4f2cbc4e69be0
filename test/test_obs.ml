(* Observability plane: registry semantics, trace-span accounting
   (phase times telescope to wall time), spans-on/off transparency, and
   the allocation-free guarantee for hot-path metric updates. *)
open Phoebe_core
module Obs = Phoebe_obs.Obs
module Trace = Phoebe_obs.Trace
module T = Phoebe_tpcc.Tpcc
module Counters = Phoebe_sim.Counters
module Scheduler = Phoebe_runtime.Scheduler
module Stats = Phoebe_util.Stats
module Phoebe_error = Phoebe_util.Phoebe_error
module Json = Phoebe_util.Json
module Prng = Phoebe_util.Prng
module Engine = Phoebe_sim.Engine
module Cluster = Phoebe_shard.Cluster
module TS = Phoebe_tpcc.Tpcc_sharded

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Registry semantics *)

let test_registry_idempotent () =
  let reg = Obs.create () in
  let c1 = Obs.counter reg "a.count" in
  Obs.Counter.add c1 5;
  let c2 = Obs.counter reg "a.count" in
  check_bool "same handle returned" true (c1 == c2);
  check_int "state preserved" 5 (Obs.Counter.get c2);
  let h1 = Obs.histogram reg "a.hist" in
  check_bool "same hist handle" true (h1 == Obs.histogram reg "a.hist");
  let raises_bug f =
    match f () with
    | _ -> false
    | exception Phoebe_error.Bug { subsystem = "obs"; _ } -> true
  in
  check_bool "kind mismatch raises Bug" true (raises_bug (fun () -> Obs.gauge reg "a.count"));
  check_bool "fn over push-metric raises Bug" true
    (raises_bug (fun () -> Obs.int_fn reg "a.hist" (fun () -> 0)))

let test_snapshot_and_diff () =
  let reg = Obs.create () in
  let c = Obs.counter reg "z.late" in
  let g = Obs.gauge reg "b.gauge" in
  Obs.int_fn reg "m.pull" (fun () -> 42);
  Obs.add_collector reg (fun () -> [ ("k.collected", Obs.Int 7) ]);
  Obs.Counter.add c 10;
  Obs.Gauge.set g 1.5;
  let older = Obs.snapshot reg in
  let names = List.map fst older in
  check_bool "snapshot sorted by name" true (names = List.sort String.compare names);
  check_bool "collector entry present" true (List.mem_assoc "k.collected" older);
  check_bool "pull fn read" true (List.assoc "m.pull" older = Obs.Int 42);
  Obs.Counter.add c 3;
  Obs.Gauge.set g 4.0;
  let d = Obs.diff ~older ~newer:(Obs.snapshot reg) in
  check_bool "counter diffed" true (List.assoc "z.late" d = Obs.Int 3);
  check_bool "gauge diffed" true (List.assoc "b.gauge" d = Obs.Float 2.5)

(* ------------------------------------------------------------------ *)
(* Trace spans over a real workload *)

let tiny_scale =
  {
    T.districts_per_warehouse = 3;
    customers_per_district = 20;
    items = 100;
    initial_orders_per_district = 10;
  }

let small_cfg = { Config.default with Config.n_workers = 2; slots_per_worker = 4 }

let run_small ~spans ~seed =
  let db = Db.create { small_cfg with Config.spans } in
  let t = T.load db ~warehouses:2 ~scale:tiny_scale ~seed:7 () in
  let committed0 = Db.committed db in
  ignore (T.run_mix t ~concurrency:8 ~duration_ns:300_000_000 ~seed ());
  (db, Db.committed db - committed0)

let phases_sum_to_wall tr =
  for kind = 0 to Trace.max_kinds - 1 do
    let phase_sum =
      List.fold_left (fun acc p -> acc +. Trace.phase_ns tr ~kind p) 0.0 Trace.all_phases
    in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "kind %d phases sum to wall time" kind)
      (Trace.total_ns tr ~kind) phase_sum
  done

let test_span_phases_sum_to_wall () =
  let db, committed = run_small ~spans:true ~seed:3 in
  let tr = match Db.trace db with Some tr -> tr | None -> Alcotest.fail "trace missing" in
  let finished_total = ref 0 in
  let committed_total = ref 0 in
  phases_sum_to_wall tr;
  for kind = 0 to Trace.max_kinds - 1 do
    finished_total := !finished_total + Trace.finished tr ~kind;
    committed_total := !committed_total + Trace.committed tr ~kind;
    check_int
      (Printf.sprintf "kind %d hist count = finished" kind)
      (Trace.finished tr ~kind)
      (Stats.Histogram.count (Trace.total_hist tr ~kind))
  done;
  check_bool "spans were recorded" true (!finished_total > 0);
  check_int "committed spans = committed txns" committed !committed_total;
  (* every TPC-C kind in the mix ran and was labelled *)
  List.iter
    (fun kind -> check_bool (Trace.kind_name tr kind ^ " spans seen") true (Trace.finished tr ~kind > 0))
    [ 1; 2; 3; 4; 5 ];
  check_bool "new_order label installed" true (Trace.kind_name tr 1 = "new_order");
  (* the registry export carries the span summaries and parses as JSON *)
  let snap = Obs.snapshot (Db.obs db) in
  check_bool "span wait export present" true (List.mem_assoc "trace.txn.new_order.lock_wait_ns" snap);
  (match List.assoc_opt "trace.txn.new_order.total_ns" snap with
  | Some (Obs.Hist h) -> check_bool "latency p99 >= p50" true (h.p99 >= h.p50 && h.p50 > 0.0)
  | _ -> Alcotest.fail "trace.txn.new_order.total_ns missing or not a histogram");
  match Json.of_string (Json.to_string (Obs.to_json (Db.obs db))) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("registry export is not valid JSON: " ^ msg)

(* Two shards, NewOrder only: a coordinator waiting on a remote
   statement or on 2PC votes is filed under Remote_wait, never under
   device I/O, and the phases of every span still telescope. *)
let test_sharded_remote_wait () =
  let eng = Engine.create () in
  let cl = Cluster.create eng ~shards:2 small_cfg in
  let ts = TS.create cl ~scale:tiny_scale ~warehouses_per_shard:1 ~seed:7 () in
  let trace k = match Db.trace (Cluster.shard cl k) with Some tr -> tr | None -> Alcotest.fail "trace missing" in
  List.iter (fun k -> Trace.set_kind_names (trace k) [| "new_order" |]) [ 0; 1 ];
  let rng = Prng.create ~seed:5 in
  for i = 0 to 299 do
    let home_g = 1 + (i mod 2) in
    Cluster.submit_dtxn cl ~home:(fst (TS.locate ts home_g)) (fun dtx ->
        Scheduler.span_kind 1;
        TS.new_order ts dtx rng ~home_g)
  done;
  Cluster.run cl;
  check_bool "some new_orders went cross-shard" true ((Cluster.stats cl).Cluster.started > 0);
  let remote = ref 0.0 in
  List.iter
    (fun k ->
      let tr = trace k in
      phases_sum_to_wall tr;
      check_bool "new_order spans finished" true (Trace.finished tr ~kind:1 > 0);
      remote := !remote +. Trace.phase_ns tr ~kind:1 Trace.Remote_wait)
    [ 0; 1 ];
  check_bool "new_order remote_wait_ns > 0" true (!remote > 0.0);
  let snap = Obs.snapshot (Db.obs (Cluster.shard cl 0)) in
  check_bool "remote wait export present" true (List.mem_assoc "trace.txn.new_order.remote_wait_ns" snap)

(* Two shards under the open-loop driver: coordinator spans carry their
   TPC-C kind on every shard; participant branches are the only spans
   left as kind 0 ("other"). *)
let test_sharded_spans_labelled () =
  let cl = Cluster.create (Engine.create ()) ~shards:2 small_cfg in
  let ts = TS.create cl ~scale:tiny_scale ~warehouses_per_shard:1 ~seed:7 () in
  ignore
    (TS.run_open ts ~shape:(Phoebe_workload.Open_loop.Steady 4000.0) ~duration_ns:100_000_000 ~seed:3 ());
  let others = ref 0 in
  for k = 0 to 1 do
    let tr = match Db.trace (Cluster.shard cl k) with Some tr -> tr | None -> Alcotest.fail "trace missing" in
    List.iter
      (fun kind ->
        check_bool
          (Printf.sprintf "shard %d %s spans" k (T.kind_name kind))
          true
          (Trace.finished tr ~kind:(T.span_kind kind) > 0))
      [ T.New_order; T.Payment ];
    check_bool "payment label installed" true (Trace.kind_name tr (T.span_kind T.Payment) = "payment");
    others := !others + Trace.finished tr ~kind:0
  done;
  let s = Cluster.stats cl in
  check_bool "some branches ran" true (s.Cluster.branches_committed > 0);
  check_int "kind-0 spans = participant branches" (s.Cluster.branches_committed + s.Cluster.branches_aborted) !others

let test_spans_transparent () =
  let db_on, committed_on = run_small ~spans:true ~seed:11 in
  let db_off, committed_off = run_small ~spans:false ~seed:11 in
  check_bool "spans off means no tracer" true (Db.trace db_off = None);
  check_int "same committed" committed_on committed_off;
  check_int "same virtual clock" (Db.now db_on) (Db.now db_off);
  Alcotest.(check (array int))
    "same per-component instruction counts"
    (Counters.snapshot (Scheduler.counters (Db.scheduler db_off)))
    (Counters.snapshot (Scheduler.counters (Db.scheduler db_on)))

(* ------------------------------------------------------------------ *)
(* Hot-path updates must not allocate *)

let test_hot_path_alloc_free () =
  let c = Obs.Counter.create () in
  let g = Obs.Gauge.create () in
  let h = Stats.Histogram.create () in
  let tr = Trace.create ~n_slots:2 () in
  let exercise n =
    Trace.begin_span tr ~slot:0 ~now:0;
    Trace.set_kind tr ~slot:0 1;
    for i = 1 to n do
      Obs.Counter.incr c;
      Obs.Counter.add c 3;
      Obs.Gauge.set g 1.5;
      Stats.Histogram.add h i;
      Trace.suspend tr ~slot:0 Trace.Io_wait ~now:i;
      Trace.resume tr ~slot:0 ~now:i
    done
  in
  exercise 100 (* warm up: one-time lazy setup outside the measurement *);
  let w0 = Gc.minor_words () in
  exercise 10_000;
  let w1 = Gc.minor_words () in
  let words = int_of_float (w1 -. w0) in
  check_bool
    (Printf.sprintf "60k probe firings allocated %d minor words (<= 256 allowed)" words)
    true (words <= 256)

let () =
  Alcotest.run "phoebe obs"
    [
      ( "registry",
        [
          Alcotest.test_case "idempotent registration" `Quick test_registry_idempotent;
          Alcotest.test_case "snapshot and diff" `Quick test_snapshot_and_diff;
        ] );
      ( "spans",
        [
          Alcotest.test_case "phases sum to wall time" `Quick test_span_phases_sum_to_wall;
          Alcotest.test_case "sharded waits are remote waits" `Quick test_sharded_remote_wait;
          Alcotest.test_case "sharded spans carry their TPC-C kind" `Quick test_sharded_spans_labelled;
          Alcotest.test_case "on/off transparency" `Quick test_spans_transparent;
        ] );
      ("alloc", [ Alcotest.test_case "hot path allocation-free" `Quick test_hot_path_alloc_free ]);
    ]
