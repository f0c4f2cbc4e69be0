(* Tests for the discrete-event engine, counters and resources. *)
open Phoebe_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:30 (fun () -> log := 3 :: !log);
  Engine.schedule e ~delay:10 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:20 (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" 30 (Engine.now e)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:100 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo within same timestamp" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:5 (fun () ->
      log := `A :: !log;
      Engine.schedule e ~delay:5 (fun () -> log := `B :: !log));
  Engine.run e;
  check_int "final time" 10 (Engine.now e);
  check_int "both ran" 2 (List.length !log)

let test_engine_run_until () =
  let e = Engine.create () in
  let ran = ref 0 in
  Engine.schedule e ~delay:10 (fun () -> incr ran);
  Engine.schedule e ~delay:1000 (fun () -> incr ran);
  Engine.run_until e ~time:500;
  check_int "only first ran" 1 !ran;
  check_int "clock moved to horizon" 500 (Engine.now e);
  check_int "one pending" 1 (Engine.pending e)

let test_engine_processed_counts_both_drivers () =
  let e = Engine.create () in
  for d = 1 to 3 do
    Engine.schedule e ~delay:(d * 100) ignore
  done;
  Engine.run_until e ~time:250;
  check_int "run_until counts its events" 2 (Engine.processed e);
  Engine.run e;
  check_int "run adds the rest" 3 (Engine.processed e)

let test_engine_past_schedule_clamped () =
  let e = Engine.create () in
  let at = ref (-1) in
  Engine.schedule e ~delay:100 (fun () ->
      Engine.schedule_at e ~time:5 (fun () -> at := Engine.now e));
  Engine.run e;
  check_int "clamped to now" 100 !at

(* Events scheduled in shuffled time order, many per instant, fire by
   time and, within an instant, in scheduling order, across every
   reshuffle of the heap. *)
let test_engine_fifo_under_reordering () =
  let e = Engine.create () in
  let rng = Phoebe_util.Prng.create ~seed:3 in
  let log = ref [] in
  let n = 2_000 in
  let times = Array.init n (fun _ -> 10 * Phoebe_util.Prng.int rng 50) in
  Array.iteri (fun i time -> Engine.schedule_at e ~time (fun () -> log := (time, i) :: !log)) times;
  check_int "all pending" n (Engine.pending e);
  Engine.run e;
  let fired = List.rev !log in
  Alcotest.(check (list (pair int int))) "by time, then FIFO" (List.sort compare fired) fired;
  check_int "all fired" n (List.length fired)

(* Scheduling and firing a prebuilt action allocates nothing: no event
   record, no option from the queue. *)
let test_engine_alloc_free () =
  let e = Engine.create () in
  let fired = ref 0 in
  let action () = incr fired in
  let cycles n =
    for i = 1 to n do
      Engine.schedule e ~delay:(i mod 7) action;
      Engine.schedule e ~delay:3 action;
      Engine.run e
    done
  in
  cycles 100;
  let w0 = Gc.minor_words () in
  cycles 10_000;
  let words = int_of_float (Gc.minor_words () -. w0) in
  check_int "minor words for 10k schedule + fire cycles" 0 words;
  check_int "every event fired" 20_200 !fired

(* [clear] empties the queue and drops its closures: a block only a
   cleared event reached is collectable. *)
let[@inline never] schedule_holding e weak =
  let payload = Bytes.create 64 in
  Weak.set weak 0 (Some payload);
  Engine.schedule e ~delay:5 (fun () -> ignore (Bytes.length payload))

let test_engine_clear () =
  let e = Engine.create () in
  let weak = Weak.create 1 in
  let ran = ref false in
  schedule_holding e weak;
  for i = 1 to 300 do
    Engine.schedule e ~delay:i (fun () -> ran := true)
  done;
  Engine.clear e;
  check_int "queue empty" 0 (Engine.pending e);
  Gc.full_major ();
  check_bool "cleared closure released" false (Weak.check weak 0);
  Engine.run e;
  check_bool "no cleared event fires" false !ran;
  check_int "clock unchanged" 0 (Engine.now e);
  Engine.schedule e ~delay:1 (fun () -> ran := true);
  Engine.run e;
  check_bool "the queue works after a clear" true !ran

let test_counters () =
  let c = Counters.create () in
  Counters.add c Component.Wal 100;
  Counters.add c Component.Wal 50;
  Counters.add c Component.Effective 850;
  check_int "wal" 150 (Counters.get c Component.Wal);
  check_int "total" 1000 (Counters.total c);
  let snap0 = Counters.snapshot c in
  Counters.add c Component.Mvcc 500;
  let d = Counters.diff snap0 (Counters.snapshot c) in
  let breakdown = Counters.breakdown d in
  let mvcc_share =
    List.assoc Component.Mvcc (List.map (fun (comp, _, share) -> (comp, share)) breakdown)
  in
  Alcotest.(check (float 1e-9)) "diff isolates new work" 1.0 mvcc_share;
  Counters.reset c;
  check_int "reset" 0 (Counters.total c)

let test_resource_fifo () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"wal" in
  let t1 = Resource.acquire_for r ~hold_ns:100 in
  let t2 = Resource.acquire_for r ~hold_ns:100 in
  check_int "first completes at 100" 100 t1;
  check_int "second queues behind" 200 t2;
  check_int "busy until" 200 (Resource.busy_until r)

let test_resource_idle_gap () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"disk" in
  let t1 = Resource.acquire_for r ~hold_ns:10 in
  check_int "t1" 10 t1;
  Engine.schedule e ~delay:1000 (fun () ->
      let t2 = Resource.acquire_for r ~hold_ns:10 in
      check_int "starts at now when idle" 1010 t2);
  Engine.run e;
  Alcotest.(check bool) "utilisation < 100%" true (Resource.utilisation r ~since:0 < 0.5)

let test_cost_defaults_positive () =
  let c = Cost.default in
  List.iter
    (fun (name, v) -> check_bool name true (v > 0))
    [
      ("btree_search", c.Cost.btree_search_per_level);
      ("latch", c.Cost.latch_acquire);
      ("undo", c.Cost.undo_create);
      ("wal", c.Cost.wal_record_base);
      ("switch", c.Cost.coroutine_switch);
      ("thread switch", c.Cost.thread_switch);
    ];
  check_bool "thread switch dearer than coroutine" true
    (c.Cost.thread_switch > 10 * c.Cost.coroutine_switch)

let () =
  Alcotest.run "phoebe_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_engine_order;
          Alcotest.test_case "fifo same time" `Quick test_engine_fifo_same_time;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "processed counts run and run_until" `Quick
            test_engine_processed_counts_both_drivers;
          Alcotest.test_case "past schedule clamped" `Quick test_engine_past_schedule_clamped;
          Alcotest.test_case "fifo under reordering" `Quick test_engine_fifo_under_reordering;
          Alcotest.test_case "schedule and fire allocate nothing" `Quick test_engine_alloc_free;
          Alcotest.test_case "clear drops pending events" `Quick test_engine_clear;
        ] );
      ("counters", [ Alcotest.test_case "accounting" `Quick test_counters ]);
      ( "resource",
        [
          Alcotest.test_case "fifo queueing" `Quick test_resource_fifo;
          Alcotest.test_case "idle gap" `Quick test_resource_idle_gap;
        ] );
      ("cost", [ Alcotest.test_case "defaults sane" `Quick test_cost_defaults_positive ]);
    ]
