(* Tests for the co-routine pool runtime: scheduling semantics, urgency,
   slots, wait queues, the thread-model emulation and CPU accounting. *)
open Phoebe_runtime
module Engine = Phoebe_sim.Engine
module Component = Phoebe_sim.Component
module Counters = Phoebe_sim.Counters

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let make ?(model = Scheduler.Coroutine) ?(n_workers = 2) ?(slots = 4) () =
  let eng = Engine.create () in
  let cfg =
    { Scheduler.default_config with model; n_workers; slots_per_worker = slots }
  in
  (eng, Scheduler.create eng cfg)

let test_task_runs () =
  let _, s = make () in
  let ran = ref false in
  Scheduler.submit s (fun () -> ran := true);
  Scheduler.run_until_quiescent s;
  check_bool "task ran" true !ran

let test_many_tasks_all_run () =
  let _, s = make ~n_workers:3 ~slots:2 () in
  let n = ref 0 in
  for _ = 1 to 100 do
    Scheduler.submit s (fun () ->
        Scheduler.charge Component.Effective 100;
        incr n)
  done;
  Scheduler.run_until_quiescent s;
  check_int "all tasks ran" 100 !n;
  check_int "no live fibers" 0 (Scheduler.live_fibers s);
  check_int "no pending tasks" 0 (Scheduler.pending_tasks s)

let test_charge_advances_time () =
  let eng, s = make ~n_workers:1 ~slots:1 () in
  Scheduler.submit s (fun () -> Scheduler.charge Component.Effective 3300);
  Scheduler.run_until_quiescent s;
  (* 3300 instructions at 2.2GHz * 1.5 IPC = 1000 ns, plus switch cost;
     sub-granule charges are realised when the worker moves on. *)
  check_bool "time advanced by roughly the charge" true
    (Engine.now eng >= 1000 && Engine.now eng < 2000)

let test_coalesced_charges_exact_total () =
  (* Many small charges must advance time by exactly their sum (modulo
     integer rounding), regardless of the flush granule. *)
  let eng, s = make ~n_workers:1 ~slots:1 () in
  Scheduler.submit s (fun () ->
      for _ = 1 to 100 do
        Scheduler.charge Component.Effective 3300
      done);
  Scheduler.run_until_quiescent s;
  check_bool "total time ~100us" true (Engine.now eng >= 100_000 && Engine.now eng < 102_000)

(* Minor words a lone fiber allocates from submit to exit when it
   crosses [granules] charge granules, each one a flush that suspends
   and resumes it. *)
let words_for_granules granules =
  let _, s = make ~n_workers:1 ~slots:1 () in
  let body () =
    for _ = 1 to granules do
      Scheduler.charge Component.Effective 20_000
    done
  in
  let w0 = Gc.minor_words () in
  Scheduler.submit s body;
  Scheduler.run_until_quiescent s;
  int_of_float (Gc.minor_words () -. w0)

(* A flush allocates its continuation, which the fiber holds as it is:
   2 words measured (4 while an option cell held it, 7 while the effect
   also carried the instruction count). The effect is one constant, the
   handler's answer, the resume thunk and the disposition are built
   once, and the engine queues the thunk without an event record. *)
let test_charge_flush_words () =
  ignore (words_for_granules 100);
  let per_flush = (words_for_granules 2_100 - words_for_granules 100) / 2_000 in
  check_bool (Printf.sprintf "%d minor words per flush (<= 2 allowed)" per_flush) true (per_flush <= 2)

let test_charge_is_tagged () =
  let _, s = make () in
  Scheduler.submit s (fun () ->
      Scheduler.charge Component.Wal 500;
      Scheduler.charge Component.Mvcc 300);
  Scheduler.run_until_quiescent s;
  check_int "wal instr" 500 (Counters.get (Scheduler.counters s) Component.Wal);
  check_int "mvcc instr" 300 (Counters.get (Scheduler.counters s) Component.Mvcc)

let test_no_preemption_between_charges () =
  (* A fiber that only charges must not interleave with another fiber on
     the same worker: co-routines run until they voluntarily yield. *)
  let _, s = make ~n_workers:1 ~slots:2 () in
  let log = ref [] in
  let task name =
    Scheduler.submit s (fun () ->
        log := (name, `Start) :: !log;
        Scheduler.charge Component.Effective 1000;
        Scheduler.charge Component.Effective 1000;
        log := (name, `End) :: !log)
  in
  task "a";
  task "b";
  Scheduler.run_until_quiescent s;
  match List.rev !log with
  | [ ("a", `Start); ("a", `End); ("b", `Start); ("b", `End) ] -> ()
  | l -> Alcotest.failf "interleaved execution: %d events in wrong order" (List.length l)

let test_yield_interleaves () =
  let _, s = make ~n_workers:1 ~slots:2 () in
  let log = ref [] in
  let task name =
    Scheduler.submit s (fun () ->
        log := (name, 1) :: !log;
        Scheduler.yield Scheduler.Low;
        log := (name, 2) :: !log)
  in
  task "a";
  task "b";
  Scheduler.run_until_quiescent s;
  (* After a's yield, worker should pick up b before finishing a?  With
     pull-based scheduling, b's task is pulled when a yields (free slot),
     so phases interleave. *)
  let order = List.rev !log in
  check_int "four events" 4 (List.length order);
  check_bool "b starts before a finishes" true
    (let rec index i = function
       | [] -> -1
       | x :: rest -> if x = ("b", 1) then i else index (i + 1) rest
     in
     let bi = index 0 order in
     let rec index2 i = function
       | [] -> -1
       | x :: rest -> if x = ("a", 2) then i else index2 (i + 1) rest
     in
     bi < index2 0 order)

let test_slots_bound_concurrency () =
  (* With 1 worker x 2 slots, at most 2 tasks may be in flight at once. *)
  let _, s = make ~n_workers:1 ~slots:2 () in
  let in_flight = ref 0 and max_in_flight = ref 0 in
  for _ = 1 to 10 do
    Scheduler.submit s (fun () ->
        incr in_flight;
        if !in_flight > !max_in_flight then max_in_flight := !in_flight;
        Scheduler.yield Scheduler.Low;
        Scheduler.charge Component.Effective 100;
        decr in_flight)
  done;
  Scheduler.run_until_quiescent s;
  check_bool "bounded by slots" true (!max_in_flight <= 2);
  check_bool "used both slots" true (!max_in_flight >= 2)

let test_affinity_routes_to_worker () =
  let _, s = make ~n_workers:4 ~slots:2 () in
  let seen = Array.make 4 (-1) in
  for w = 0 to 3 do
    Scheduler.submit ~affinity:w s (fun () -> seen.(w) <- Scheduler.current_worker ())
  done;
  Scheduler.run_until_quiescent s;
  Alcotest.(check (array int)) "each ran on its worker" [| 0; 1; 2; 3 |] seen

let test_io_wait_resumes () =
  let eng, s = make ~n_workers:1 ~slots:2 () in
  let resumed_at = ref (-1) in
  Scheduler.submit s (fun () ->
      Scheduler.io_wait (fun resume -> Engine.schedule eng ~delay:5000 (fun () -> resume ()));
      resumed_at := Engine.now eng);
  Scheduler.run_until_quiescent s;
  check_bool "resumed after io delay" true (!resumed_at >= 5000)

let test_io_wait_overlaps_other_fiber () =
  (* While fiber a waits on io, fiber b should run on the same worker. *)
  let eng, s = make ~n_workers:1 ~slots:2 () in
  let b_ran_during_io = ref false in
  let io_done = ref false in
  Scheduler.submit s (fun () ->
      Scheduler.io_wait (fun resume ->
          Engine.schedule eng ~delay:100_000 (fun () -> resume ()));
      io_done := true);
  Scheduler.submit s (fun () ->
      Scheduler.charge Component.Effective 100;
      if not !io_done then b_ran_during_io := true);
  Scheduler.run_until_quiescent s;
  check_bool "b overlapped a's io" true !b_ran_during_io

let test_waitq_blocks_until_signal () =
  let eng, s = make ~n_workers:2 ~slots:2 () in
  let q = Scheduler.Waitq.create () in
  let woke_at = ref (-1) in
  Scheduler.submit s (fun () ->
      Scheduler.Waitq.wait q;
      woke_at := Engine.now eng);
  Engine.schedule eng ~delay:7777 (fun () -> Scheduler.Waitq.signal_all q);
  Scheduler.run_until_quiescent s;
  check_bool "woke after signal" true (!woke_at >= 7777)

let test_waitq_wakes_all () =
  let eng, s = make ~n_workers:2 ~slots:8 () in
  let q = Scheduler.Waitq.create () in
  let woken = ref 0 in
  for _ = 1 to 6 do
    Scheduler.submit s (fun () ->
        Scheduler.Waitq.wait q;
        incr woken)
  done;
  Engine.schedule eng ~delay:100_000 (fun () -> Scheduler.Waitq.signal_all q);
  Scheduler.run_until_quiescent s;
  check_int "all woken" 6 !woken

let test_high_urgency_preferred () =
  (* an io completion (high urgency) must be served before a lock-wakeup
     (low urgency) queued earlier on the same worker *)
  let eng, s = make ~n_workers:1 ~slots:4 () in
  let order = ref [] in
  let q = Scheduler.Waitq.create () in
  Scheduler.submit s (fun () ->
      Scheduler.Waitq.wait q;
      order := `Low :: !order);
  Scheduler.submit s (fun () ->
      Scheduler.io_wait (fun resume -> Engine.schedule eng ~delay:60_000 (fun () -> resume ()));
      order := `High :: !order);
  (* wake the low-urgency fiber first, while the io is still in flight;
     then block the worker with a long charge so both wakeups are queued
     when it frees up *)
  Scheduler.submit s (fun () ->
      Scheduler.Waitq.signal_all q;
      Scheduler.charge Component.Effective 250_000);
  Scheduler.run_until_quiescent s;
  (match List.rev !order with
  | [ `High; `Low ] -> ()
  | [ `Low; `High ] -> Alcotest.fail "low-urgency wakeup served before io completion"
  | _ -> Alcotest.fail "unexpected order");
  ignore eng

let test_pull_not_before_high_urgency () =
  (* a worker with a high-urgency wakeup pending must resume it before
     pulling a brand-new task (the paper's pause-intake rule) *)
  let eng, s = make ~n_workers:1 ~slots:4 () in
  let order = ref [] in
  Scheduler.submit s (fun () ->
      Scheduler.io_wait (fun resume -> Engine.schedule eng ~delay:10_000 (fun () -> resume ()));
      order := `Resumed :: !order);
  Scheduler.submit s (fun () -> Scheduler.charge Component.Effective 100_000);
  (* by the time the long charge ends, both the io wakeup and this new
     task are available; the wakeup must win *)
  Engine.schedule eng ~delay:20_000 (fun () ->
      Scheduler.submit s (fun () -> order := `Fresh :: !order));
  Scheduler.run_until_quiescent s;
  match List.rev !order with
  | `Resumed :: _ -> ()
  | _ -> Alcotest.fail "new task pulled before high-urgency resume"

let test_deadlock_detected () =
  let _, s = make () in
  let q = Scheduler.Waitq.create () in
  Scheduler.submit s (fun () -> Scheduler.Waitq.wait q);
  check_bool "deadlock raises" true
    (try
       Scheduler.run_until_quiescent s;
       false
     with Phoebe_util.Phoebe_error.Bug { subsystem = "runtime.scheduler"; _ } -> true)

let test_exception_propagates () =
  let _, s = make () in
  Scheduler.submit s (fun () -> failwith "boom");
  Alcotest.check_raises "fiber exception re-raised" (Failure "boom") (fun () ->
      Scheduler.run_until_quiescent s)

let test_outside_fiber_noops () =
  check_bool "not in fiber" false (Scheduler.in_fiber ());
  Scheduler.charge Component.Effective 100;
  Scheduler.yield Scheduler.Low;
  let called = ref false in
  Scheduler.io_wait (fun resume ->
      called := true;
      resume ());
  check_bool "io register called synchronously" true !called

(* ------------------------------------------------------------------ *)
(* The cancellable wait core: deadline heap ordering, wake reasons,
   cancellation, and the interplay with wait queues and spins. *)

module Trace = Phoebe_obs.Trace

let test_deadline_heap_ordering () =
  (* Three fibers park with out-of-order deadlines and no wake source:
     their expiry events must wake them in deadline order, each at its
     own virtual time. *)
  let eng, s = make ~n_workers:1 ~slots:4 () in
  let log = ref [] in
  let park_until name d =
    Scheduler.submit s (fun () ->
        let r =
          Scheduler.park ~deadline:(Scheduler.At d) ~urgency:Scheduler.Low
            ~phase:Trace.Lock_wait (fun _ -> ())
        in
        log := (name, r, Engine.now eng) :: !log)
  in
  park_until "a" 30_000;
  park_until "b" 10_000;
  park_until "c" 20_000;
  Scheduler.run_until_quiescent s;
  (match List.rev !log with
  | [ ("b", rb, tb); ("c", rc, tc); ("a", ra, ta) ] ->
    check_bool "all timed out" true
      (rb = Scheduler.Timed_out && rc = Scheduler.Timed_out && ra = Scheduler.Timed_out);
    check_bool "b at its deadline" true (tb >= 10_000 && tb < 20_000);
    check_bool "c at its deadline" true (tc >= 20_000 && tc < 30_000);
    check_bool "a at its deadline" true (ta >= 30_000)
  | l -> Alcotest.failf "wrong wake order (%d wakes)" (List.length l));
  check_int "three timeouts counted" 3 (Scheduler.timeouts s)

let test_wake_reason_signalled_before_deadline () =
  let eng, s = make ~n_workers:1 ~slots:2 () in
  let got = ref None in
  Scheduler.submit s (fun () ->
      let r =
        Scheduler.park ~deadline:(Scheduler.At 50_000) ~urgency:Scheduler.Low
          ~phase:Trace.Lock_wait (fun wt ->
            Engine.schedule eng ~delay:5_000 (fun () ->
                ignore (Scheduler.wake_waiter wt Scheduler.Signalled)))
      in
      got := Some (r, Engine.now eng));
  Scheduler.run_until_quiescent s;
  (match !got with
  | Some (Scheduler.Signalled, t) -> check_bool "woke at the signal, not the deadline" true (t < 50_000)
  | _ -> Alcotest.fail "expected Signalled");
  check_int "no timeout counted" 0 (Scheduler.timeouts s)

(* A waiter's node goes back to the freelist when its park returns, and
   the fiber's next park takes the same node. The first park's expiry
   event is still queued when the node starts its second, deadline-free
   life: it must wake nothing. *)
let test_recycled_node_ignores_old_expiry () =
  let eng, s = make ~n_workers:1 ~slots:2 () in
  let nodes = ref [] and got = ref [] in
  let signal_at time wt =
    nodes := wt :: !nodes;
    Engine.schedule_at eng ~time (fun () -> ignore (Scheduler.wake_waiter wt Scheduler.Signalled))
  in
  Scheduler.submit s (fun () ->
      let first =
        Scheduler.park ~deadline:(Scheduler.At 50_000) ~urgency:Scheduler.Low ~phase:Trace.Lock_wait
          (signal_at 5_000)
      in
      let second =
        Scheduler.park ~deadline:Scheduler.Never ~urgency:Scheduler.Low ~phase:Trace.Lock_wait
          (signal_at 100_000)
      in
      got := [ (first, Engine.now eng); (second, Engine.now eng) ]);
  Scheduler.run_until_quiescent s;
  (match !nodes with
  | [ n2; n1 ] -> check_bool "the second park recycled the first one's node" true (n1 == n2)
  | _ -> Alcotest.fail "expected two parks");
  (match !got with
  | [ (Scheduler.Signalled, _); (Scheduler.Signalled, t) ] ->
    check_bool "the second park woke at its own signal" true (t >= 100_000)
  | _ -> Alcotest.fail "expected two Signalled wakes");
  check_int "the stale expiry counted no timeout" 0 (Scheduler.timeouts s)

(* Three fibers wait on one queue, each with a deadline; the one at
   [victim] (0 = head, 2 = tail) times out and must leave the queue at
   once. A fiber that waits afterwards is linked behind the two left,
   which needs the queue's tail repaired when the victim was the tail. *)
let timeout_leaves_queue victim () =
  let eng, s = make ~n_workers:1 ~slots:4 () in
  let q = Scheduler.Waitq.create () in
  let log = ref [] in
  let waiter name deadline () =
    let r = Scheduler.Waitq.wait_r ~deadline:(Scheduler.At deadline) q in
    log := (name, r) :: !log
  in
  List.iteri
    (fun i name -> Scheduler.submit s (waiter name (if i = victim then 10_000 else 1_000_000)))
    [ "a"; "b"; "c" ];
  Engine.schedule eng ~delay:20_000 (fun () ->
      check_int "the two left are counted" 2 (Scheduler.Waitq.length q);
      Scheduler.submit s (waiter "d" 1_000_000));
  Engine.schedule eng ~delay:30_000 (fun () ->
      check_int "the late waiter joined them" 3 (Scheduler.Waitq.length q);
      Scheduler.Waitq.signal_all q;
      check_bool "the signal drained the queue" true (Scheduler.Waitq.is_empty q));
  Scheduler.run_until_quiescent s;
  let victim_name = List.nth [ "a"; "b"; "c" ] victim in
  let signalled = List.filter (fun n -> n <> victim_name) [ "a"; "b"; "c"; "d" ] in
  let expect = (victim_name, Scheduler.Timed_out) :: List.map (fun n -> (n, Scheduler.Signalled)) signalled in
  check_bool "timeout first, then FIFO signal order" true (List.rev !log = expect);
  check_int "one timeout counted" 1 (Scheduler.timeouts s)

(* Minor words for [n] lock-wait cycles: two fibers take turns, each
   signalling the other's queue and then waiting on its own, so a cycle
   is two Lock_wait parks and two signals. *)
let words_for_lock_cycles n =
  let _, s = make ~n_workers:1 ~slots:2 () in
  let qa = Scheduler.Waitq.create () and qb = Scheduler.Waitq.create () in
  let w0 = Gc.minor_words () in
  Scheduler.submit s (fun () ->
      for _ = 1 to n do
        ignore (Scheduler.Waitq.wait_r qa);
        Scheduler.Waitq.signal_all qb
      done);
  Scheduler.submit s (fun () ->
      for _ = 1 to n do
        Scheduler.Waitq.signal_all qa;
        ignore (Scheduler.Waitq.wait_r qb)
      done);
  Scheduler.run_until_quiescent s;
  int_of_float (Gc.minor_words () -. w0)

(* 38 words measured per cycle, 19 per park: the continuation, the
   register closure, the option cells that link the waiter and its
   [Woken] state. The waiter node itself is recycled. *)
let test_lock_wait_cycle_words () =
  ignore (words_for_lock_cycles 100);
  let per_cycle = (words_for_lock_cycles 1_100 - words_for_lock_cycles 100) / 1_000 in
  check_bool
    (Printf.sprintf "%d minor words per lock-wait cycle (<= 40 allowed)" per_cycle)
    true (per_cycle <= 40)

let test_signal_after_timeout_is_noop () =
  (* A waiter that timed out has already left its wait queue; the
     eventual signal finds nothing to wake, and Waitq.length does not
     count it. *)
  let eng, s = make ~n_workers:1 ~slots:2 () in
  let q = Scheduler.Waitq.create () in
  let wakes = ref [] in
  Scheduler.submit s (fun () ->
      let r = Scheduler.Waitq.wait_r ~deadline:(Scheduler.At 10_000) q in
      wakes := r :: !wakes);
  Engine.schedule eng ~delay:20_000 (fun () ->
      (* after the timeout, before the signal: the stale entry is dead *)
      check_int "timed-out waiter not counted" 0 (Scheduler.Waitq.length q);
      Scheduler.Waitq.signal_all q);
  Scheduler.run_until_quiescent s;
  (match !wakes with
  | [ Scheduler.Timed_out ] -> ()
  | _ -> Alcotest.fail "expected exactly one Timed_out wake");
  check_int "one timeout counted" 1 (Scheduler.timeouts s)

let test_spin_yield_observes_deadline () =
  let eng, s = make ~n_workers:1 ~slots:2 () in
  let before = ref None and after = ref None in
  Scheduler.submit s (fun () ->
      Scheduler.set_txn_deadline (Some (Engine.now eng + 50_000));
      before := Some (Scheduler.spin_yield Scheduler.High);
      (* burn past the deadline, then spin again *)
      Scheduler.charge Component.Effective 400_000;
      after := Some (Scheduler.spin_yield Scheduler.High);
      Scheduler.set_txn_deadline None);
  Scheduler.run_until_quiescent s;
  check_bool "pre-deadline spin yields normally" true (!before = Some Scheduler.Signalled);
  check_bool "post-deadline spin times out" true (!after = Some Scheduler.Timed_out);
  check_int "spin timeout counted" 1 (Scheduler.timeouts s)

let test_inherit_resolves_fiber_deadline () =
  (* An Inherit-bound park (the Waitq default wait_r) picks up the
     fiber's transaction deadline; a Never-bound wait ignores it. *)
  let eng, s = make ~n_workers:1 ~slots:4 () in
  let q = Scheduler.Waitq.create () in
  let inherited = ref None in
  Scheduler.submit s (fun () ->
      Scheduler.set_txn_deadline (Some 8_000);
      let r = Scheduler.Waitq.wait_r q in
      inherited := Some (r, Engine.now eng));
  let never_woke = ref None in
  Scheduler.submit s (fun () ->
      Scheduler.set_txn_deadline (Some 8_000);
      let r =
        Scheduler.park ~deadline:Scheduler.Never ~urgency:Scheduler.High ~phase:Trace.Io_wait
          (fun wt ->
            Engine.schedule eng ~delay:40_000 (fun () ->
                ignore (Scheduler.wake_waiter wt Scheduler.Signalled)))
      in
      never_woke := Some (r, Engine.now eng));
  Scheduler.run_until_quiescent s;
  (match !inherited with
  | Some (Scheduler.Timed_out, t) -> check_bool "timed out at fiber deadline" true (t >= 8_000 && t < 40_000)
  | _ -> Alcotest.fail "Inherit wait should time out at the fiber deadline");
  match !never_woke with
  | Some (Scheduler.Signalled, t) ->
    check_bool "Never-bound wait outlived the fiber deadline" true (t >= 40_000)
  | _ -> Alcotest.fail "Never wait should wake only on its signal"

let test_thread_model_slower () =
  (* Same workload; the thread model pays kernel-priced switches, so the
     co-routine model finishes sooner in virtual time. *)
  let run model =
    let eng, s = make ~model ~n_workers:2 ~slots:1 () in
    for _ = 1 to 50 do
      Scheduler.submit s (fun () ->
          for _ = 1 to 5 do
            Scheduler.charge Component.Effective 1000;
            Scheduler.yield Scheduler.Low
          done)
    done;
    Scheduler.run_until_quiescent s;
    Engine.now eng
  in
  let coroutine_t = run Scheduler.Coroutine in
  let thread_t = run Scheduler.Thread in
  check_bool "thread model slower" true (thread_t > coroutine_t)

let test_smt_speed_knee () =
  let cpu = Cpu.default in
  Alcotest.(check (float 1e-9)) "52 workers full speed" 1.0
    (Cpu.worker_speed cpu ~n_workers:52 ~worker:51);
  Alcotest.(check (float 1e-9)) "104 workers all smt" cpu.Cpu.smt_efficiency
    (Cpu.worker_speed cpu ~n_workers:104 ~worker:0);
  Alcotest.(check (float 1e-9)) "60 workers: unshared core stays fast" 1.0
    (Cpu.worker_speed cpu ~n_workers:60 ~worker:20);
  Alcotest.(check (float 1e-9)) "60 workers: shared sibling slows" cpu.Cpu.smt_efficiency
    (Cpu.worker_speed cpu ~n_workers:60 ~worker:55)

let test_ns_conversion () =
  let cpu = Cpu.default in
  check_int "3300 instr = 1000 ns" 1000 (Cpu.ns_of_instructions cpu ~speed:1.0 3300);
  check_int "zero instr" 0 (Cpu.ns_of_instructions cpu ~speed:1.0 0);
  check_bool "slower core takes longer" true
    (Cpu.ns_of_instructions cpu ~speed:0.65 3300 > 1000)

let test_busy_fraction_positive () =
  let _, s = make ~n_workers:1 ~slots:1 () in
  Scheduler.submit s (fun () -> Scheduler.charge Component.Effective 100_000);
  Scheduler.run_until_quiescent s;
  let f = Scheduler.busy_fraction s in
  check_bool "busy fraction in (0,1]" true (f > 0.5 && f <= 1.01)

let () =
  Alcotest.run "phoebe_runtime"
    [
      ( "scheduler",
        [
          Alcotest.test_case "task runs" `Quick test_task_runs;
          Alcotest.test_case "many tasks" `Quick test_many_tasks_all_run;
          Alcotest.test_case "charge advances time" `Quick test_charge_advances_time;
          Alcotest.test_case "coalesced charges exact" `Quick test_coalesced_charges_exact_total;
          Alcotest.test_case "charge tagged" `Quick test_charge_is_tagged;
          Alcotest.test_case "charge flush words" `Quick test_charge_flush_words;
          Alcotest.test_case "no preemption between charges" `Quick
            test_no_preemption_between_charges;
          Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
          Alcotest.test_case "slots bound concurrency" `Quick test_slots_bound_concurrency;
          Alcotest.test_case "affinity" `Quick test_affinity_routes_to_worker;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "outside-fiber noops" `Quick test_outside_fiber_noops;
        ] );
      ( "io+block",
        [
          Alcotest.test_case "io_wait resumes" `Quick test_io_wait_resumes;
          Alcotest.test_case "io overlap" `Quick test_io_wait_overlaps_other_fiber;
          Alcotest.test_case "waitq blocks until signal" `Quick test_waitq_blocks_until_signal;
          Alcotest.test_case "waitq wakes all" `Quick test_waitq_wakes_all;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "high urgency preferred" `Quick test_high_urgency_preferred;
          Alcotest.test_case "no pull before high urgency" `Quick test_pull_not_before_high_urgency;
        ] );
      ( "wait-core",
        [
          Alcotest.test_case "deadline heap ordering" `Quick test_deadline_heap_ordering;
          Alcotest.test_case "signalled before deadline" `Quick
            test_wake_reason_signalled_before_deadline;
          Alcotest.test_case "recycled node ignores old expiry" `Quick
            test_recycled_node_ignores_old_expiry;
          Alcotest.test_case "head timeout leaves queue" `Quick (timeout_leaves_queue 0);
          Alcotest.test_case "middle timeout leaves queue" `Quick (timeout_leaves_queue 1);
          Alcotest.test_case "tail timeout leaves queue" `Quick (timeout_leaves_queue 2);
          Alcotest.test_case "lock-wait cycle words" `Quick test_lock_wait_cycle_words;
          Alcotest.test_case "signal after timeout is noop" `Quick test_signal_after_timeout_is_noop;
          Alcotest.test_case "spin_yield observes deadline" `Quick test_spin_yield_observes_deadline;
          Alcotest.test_case "inherit vs never bounds" `Quick test_inherit_resolves_fiber_deadline;
        ] );
      ( "models",
        [
          Alcotest.test_case "thread model slower" `Quick test_thread_model_slower;
          Alcotest.test_case "smt knee" `Quick test_smt_speed_knee;
          Alcotest.test_case "ns conversion" `Quick test_ns_conversion;
          Alcotest.test_case "busy fraction" `Quick test_busy_fraction_positive;
        ] );
    ]
