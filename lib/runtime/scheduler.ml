module Engine = Phoebe_sim.Engine
module Component = Phoebe_sim.Component
module Counters = Phoebe_sim.Counters
module Cost = Phoebe_sim.Cost
module Obs = Phoebe_obs.Obs
module Trace = Phoebe_obs.Trace
module Phoebe_error = Phoebe_util.Phoebe_error
module Sanitize = Phoebe_sanitize.Sanitize

type model = Coroutine | Thread
type urgency = High | Low
type reason = Signalled | Timed_out
type bound = Inherit | Never | At of int

type config = {
  model : model;
  n_workers : int;
  slots_per_worker : int;
  cpu : Cpu.t;
  cost : Cost.t;
}

let default_config =
  { model = Coroutine; n_workers = 4; slots_per_worker = 32; cpu = Cpu.default; cost = Cost.default }

type task = { run : unit -> unit }

(* How the fiber that just ran gave the worker back. The charge's ns
   and the yield's urgency ride in the worker's [charge_ns] and
   [yield_urgency], so recording a disposition allocates nothing. *)
type disposition =
  | Ran_to_completion
  | Charged  (** resume the same fiber after [charge_ns] *)
  | Suspended  (** parked on I/O or a wait queue *)
  | Yielded  (** requeue at [yield_urgency] *)

(* [max_int] is the "no deadline" sentinel for fiber and park deadlines,
   so comparisons never need an option. *)
let no_deadline = max_int

type fiber = {
  fid : int;
  fworker : worker;
  fslot : int;  (** slot index within the worker *)
  fresume : unit -> unit;  (** [resume] of this fiber, built once for every dispatch *)
  fsome : fiber option;  (** [Some] of this fiber, the current-fiber register's value *)
  mutable cont : (unit, unit) Effect.Deep.continuation;  (** [no_cont] when not suspended *)
  mutable main : (unit -> unit) option;  (** set until first run *)
  mutable done_ : bool;
  mutable pending_instr : int;  (** charged instructions not yet turned into time *)
  mutable fdeadline : int;  (** transaction deadline inherited by waits; [no_deadline] = none *)
  mutable fwaiter : waiter option;  (** waiter of the in-progress park, for the return path *)
  mutable park_urgency : urgency;  (** the in-progress park's request, read by the handler *)
  mutable park_deadline : int;  (** absolute virtual time; [no_deadline] = none *)
  mutable park_phase : Trace.phase;
  mutable park_register : waiter -> unit;
}

and worker = {
  wid : int;
  wsched : t;
  speed : float;
  runq_hi : fiber Queue.t;
  runq_lo : fiber Queue.t;
  local_tasks : task Queue.t;
  mutable free_slots : int;
  slot_free : bool array;
  mutable busy : bool;
  mutable last_fiber : int;
  mutable disposition : disposition;
  mutable charge_ns : int;  (** a [Charged] disposition's delay *)
  mutable yield_urgency : urgency;  (** a [Yielded] disposition's queue *)
  wloop : unit -> unit;  (** [worker_loop] of this worker, built once *)
  mutable busy_ns : int;
  mutable carry_ns : int;  (** residual charge time applied to the next dispatch *)
}

and t = {
  cfg : config;
  eng : Engine.t;
  ctrs : Counters.t;
  mutable workers : worker array;
  global_tasks : task Queue.t;
  mutable live : int;
  mutable failure : exn option;
  created_at : int;
  mutable trace : Trace.t option;  (** per-slot txn spans, when enabled *)
  mutable waiter_free : waiter option;  (** recycled waiter nodes, linked via [wnext] *)
  mutable waiter_free_len : int;
  n_timeouts : Obs.Counter.t;
  lock_wait_ring : int array;  (** recent lock-wait durations (ns), for admission *)
  mutable lock_wait_n : int;
}

and wstate = Parked | Woken of reason

(* Waiter nodes are recycled through a per-scheduler freelist
   (DESIGN.md §4h): a lock wait per statement would otherwise allocate a
   node, a queue cell and a ref every time. A node lives exactly as long
   as its park: it goes back to the freelist when the park returns. By
   then nothing of the wait core reaches it: a wake unlinks it from its
   wait queue, and the deadline's expiry event acts only while [wgen]
   still names the park it was scheduled for, so an expiry outliving its
   park never touches the node's next life. *)
and waiter = {
  mutable wfiber : fiber;
  mutable wurgency : urgency;
  mutable wstate : wstate;
  mutable wgen : int;
  mutable wqueue : waitq;  (** the wait queue linking this node; [no_queue] when none *)
  mutable wnext : waiter option;  (** intrusive wait-queue / freelist link *)
}

(* A FIFO of parked waiters, linked through their [wnext] fields. *)
and waitq = { mutable qhead : waiter option; mutable qtail : waiter option }

let no_queue = { qhead = None; qtail = None }

(* [E_park]'s request (urgency, deadline, phase, register) rides in the
   fiber's [park_*] fields, and a charge flush's instruction count in
   its [pending_instr], so both perform a constant effect. *)
type _ Effect.t +=
  | E_charge_time : unit Effect.t  (** the fiber's pending instructions, already counted; advance time only *)
  | E_yield : urgency -> unit Effect.t
  | E_park : unit Effect.t

(* The two yields, built once: an extension constructor's application
   is never a static constant. *)
let yield_high = E_yield High
let yield_low = E_yield Low

(* A fiber's [cont] when it is not suspended: a continuation captured
   once, at start-up, and never resumed. A suspension then stores its
   continuation as it is, with no option cell around it. *)
type _ Effect.t += E_never : unit Effect.t

let no_cont : (unit, unit) Effect.Deep.continuation =
  let held : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform E_never
    {
      retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | E_never -> Some (fun (k : (unit, unit) Effect.Deep.continuation) -> held := Some k)
          | _ -> None);
    };
  match !held with Some k -> k | None -> assert false

(* The runtime is cooperative and single-OS-threaded, so a module-global
   current-fiber register is safe and avoids threading a context through
   every kernel call site. *)
let cur : fiber option ref = ref None

(* The cost table and the counters of [cur]'s scheduler, set wherever
   [cur] is: kernel code reads them on every charge, and through [cur]
   each is a chain of four dependent loads. Outside a fiber the cost is
   the default and the counters are not read. *)
let cur_cost = ref Cost.default
let cur_ctrs = ref (Counters.create ())

(* Fiber ids are process-unique (never reused across schedulers): the
   sanitizer keys per-fiber held-resource state on them, and tests may
   run many schedulers in one process. Only id *equality* matters to
   scheduling ([last_fiber]), so the wider numbering changes nothing. *)
let fid_counter = ref 0

let busy_fraction t =
  let elapsed = Engine.now t.eng - t.created_at in
  if elapsed <= 0 then 0.0
  else
    let total_busy = Array.fold_left (fun acc w -> acc + w.busy_ns) 0 t.workers in
    float_of_int total_busy /. (float_of_int elapsed *. float_of_int t.cfg.n_workers)

let lock_wait_window = 128

let engine t = t.eng
let counters t = t.ctrs
let set_trace t tr = t.trace <- Some tr
let trace t = t.trace
let cost t = t.cfg.cost
let config t = t.cfg
let now t = Engine.now t.eng
let n_slots t = t.cfg.n_workers * t.cfg.slots_per_worker
let pending_tasks t =
  Queue.length t.global_tasks
  + Array.fold_left (fun acc w -> acc + Queue.length w.local_tasks) 0 t.workers
let live_fibers t = t.live
let timeouts t = Obs.Counter.get t.n_timeouts

(* When workers outnumber hardware threads (Exp 6's 3200-thread model),
   the busy workers time-share the cores; charges stretch accordingly. *)
let oversubscription t =
  if t.cfg.n_workers <= t.cfg.cpu.Cpu.virtual_cores then 1.0
  else
    let busy = Array.fold_left (fun acc w -> acc + if w.busy then 1 else 0) 0 t.workers in
    let ratio = float_of_int busy /. float_of_int t.cfg.cpu.Cpu.virtual_cores in
    if ratio < 1.0 then 1.0 else ratio

let ns_of_instr t w n =
  let base = Cpu.ns_of_instructions t.cfg.cpu ~speed:w.speed n in
  int_of_float (float_of_int base *. oversubscription t)

let switch_instr t = match t.cfg.model with Coroutine -> t.cfg.cost.Cost.coroutine_switch | Thread -> t.cfg.cost.Cost.thread_switch

let alloc_slot w =
  let rec find i =
    if i >= Array.length w.slot_free then invalid_arg "alloc_slot: no free slot"
    else if w.slot_free.(i) then begin
      w.slot_free.(i) <- false;
      i
    end
    else find (i + 1)
  in
  w.free_slots <- w.free_slots - 1;
  find 0

let release_slot w f =
  w.slot_free.(f.fslot) <- true;
  w.free_slots <- w.free_slots + 1

(* Registry-wide slot id for span state (same scheme as [current_slot]). *)
let global_slot f = (f.fworker.wid * f.fworker.wsched.cfg.slots_per_worker) + f.fslot

(* Trace probes: each is a couple of int stores when tracing is on and a
   single option match when off — never an allocation. *)
let probe_suspend t f phase =
  match t.trace with
  | Some tr -> Trace.suspend tr ~slot:(global_slot f) phase ~now:(Engine.now t.eng)
  | None -> ()

let probe_resume t f =
  match t.trace with
  | Some tr -> Trace.resume tr ~slot:(global_slot f) ~now:(Engine.now t.eng)
  | None -> ()

(* Allocation attribution brackets: [Gc.minor_words] is process-global,
   so a span may only count words allocated while its own fiber holds
   the CPU (charge suspensions and parks hand the thread to other
   fibers). See trace.mli. *)
let probe_cpu_on t f =
  match t.trace with Some tr -> Trace.cpu_on tr ~slot:(global_slot f) | None -> ()

let probe_cpu_off t f =
  match t.trace with Some tr -> Trace.cpu_off tr ~slot:(global_slot f) | None -> ()

let waiter_free_cap = 1024

let alloc_waiter t f ~urgency =
  match t.waiter_free with
  | Some wt ->
    t.waiter_free <- wt.wnext;
    t.waiter_free_len <- t.waiter_free_len - 1;
    (* the generation bump disarms the previous life's expiry event *)
    wt.wgen <- wt.wgen + 1;
    wt.wfiber <- f;
    wt.wurgency <- urgency;
    wt.wstate <- Parked;
    wt.wnext <- None;
    wt
  | None -> { wfiber = f; wurgency = urgency; wstate = Parked; wgen = 0; wqueue = no_queue; wnext = None }

(* Called once, when the node's park returns. *)
let release_waiter t wt =
  if t.waiter_free_len < waiter_free_cap then begin
    wt.wnext <- t.waiter_free;
    t.waiter_free <- Some wt;
    t.waiter_free_len <- t.waiter_free_len + 1
  end

(* Take a woken waiter out of its wait queue. A linear scan: lock queues
   are short, and only a timeout wakes a waiter that is not the head. *)
let unlink wt =
  let q = wt.wqueue in
  wt.wqueue <- no_queue;
  let rec scan prev = function
    | None -> ()
    | Some c when c == wt ->
      (match prev with None -> q.qhead <- wt.wnext | Some p -> p.wnext <- wt.wnext);
      (match wt.wnext with None -> q.qtail <- prev | Some _ -> ());
      wt.wnext <- None
    | Some c as cur -> scan cur c.wnext
  in
  scan None q.qhead

(* Pick the worker's next fiber and dispatch it, or idle the worker:
   woken high-urgency fibers first, then new tasks while a slot is free,
   then low-urgency fibers. *)
let rec worker_loop w =
  let t = w.wsched in
  if not (Queue.is_empty w.runq_hi) then dispatch w (Queue.pop w.runq_hi) 0
  else if w.free_slots > 0 && not (Queue.is_empty w.local_tasks) then
    dispatch w (start_task w (Queue.pop w.local_tasks)) t.cfg.cost.Cost.task_dispatch
  else if w.free_slots > 0 && not (Queue.is_empty t.global_tasks) then
    dispatch w (start_task w (Queue.pop t.global_tasks)) t.cfg.cost.Cost.task_dispatch
  else if not (Queue.is_empty w.runq_lo) then dispatch w (Queue.pop w.runq_lo) 0
  else w.busy <- false

and dispatch w f extra_instr =
  let t = w.wsched in
  w.busy <- true;
  (* A thread resuming after a block pays the kernel switch + cache
     refill even when it is the worker's only fiber; a co-routine
     resuming on its own still-warm worker pays nothing. *)
  let sw =
    match t.cfg.model with
    | Thread -> switch_instr t
    | Coroutine -> if w.last_fiber = f.fid then 0 else switch_instr t
  in
  if sw > 0 then Counters.add t.ctrs Component.Switch sw;
  let delay = ns_of_instr t w (sw + extra_instr) + w.carry_ns in
  w.carry_ns <- 0;
  w.busy_ns <- w.busy_ns + delay;
  Engine.schedule t.eng ~delay f.fresume

and start_task w task =
  let t = w.wsched in
  incr fid_counter;
  t.live <- t.live + 1;
  let slot = alloc_slot w in
  let rec f =
    {
      fid = !fid_counter;
      fworker = w;
      fslot = slot;
      fresume = (fun () -> resume w f);
      fsome = Some f;
      cont = no_cont;
      main = Some task.run;
      done_ = false;
      pending_instr = 0;
      fdeadline = no_deadline;
      fwaiter = None;
      park_urgency = High;
      park_deadline = no_deadline;
      park_phase = Trace.Io_wait;
      park_register = ignore;
    }
  in
  f

and resume w f =
  let t = w.wsched in
  w.disposition <- Ran_to_completion;
  probe_resume t f;
  probe_cpu_on t f;
  cur := f.fsome;
  cur_cost := t.cfg.cost;
  cur_ctrs := t.ctrs;
  (match f.cont with
  | k when k != no_cont ->
    f.cont <- no_cont;
    Effect.Deep.continue k ()
  | _ -> (
    match f.main with
    | None ->
      Phoebe_error.bug ~subsystem:"runtime.scheduler" "resume: fiber %d has neither continuation nor main" f.fid
    | Some main ->
      f.main <- None;
      run_fiber w f main));
  probe_cpu_off t f;
  cur := None;
  cur_cost := Cost.default;
  w.last_fiber <- f.fid;
  (* Residual un-flushed charge time rides on the worker's next dispatch
     so coalescing never loses virtual time. *)
  if f.pending_instr > 0 then begin
    w.carry_ns <- w.carry_ns + ns_of_instr t w f.pending_instr;
    f.pending_instr <- 0
  end;
  match w.disposition with
  | Charged ->
    w.busy_ns <- w.busy_ns + w.charge_ns;
    Engine.schedule t.eng ~delay:w.charge_ns f.fresume
  | Ran_to_completion ->
    f.done_ <- true;
    t.live <- t.live - 1;
    if Sanitize.on () then Sanitize.on_fiber_done ~fiber:f.fid;
    release_slot w f;
    continue_after_carry w
  | Suspended -> continue_after_carry w
  | Yielded ->
    (match w.yield_urgency with High -> Queue.push f w.runq_hi | Low -> Queue.push f w.runq_lo);
    continue_after_carry w

(* Realise any residual coalesced charge time before the worker picks its
   next fiber, so virtual time and utilisation stay exact even when a
   fiber ends below the flush granule. *)
and continue_after_carry w =
  if w.carry_ns > 0 then begin
    let d = w.carry_ns in
    w.carry_ns <- 0;
    w.busy_ns <- w.busy_ns + d;
    Engine.schedule w.wsched.eng ~delay:d w.wloop
  end
  else worker_loop w

(* The handler's answers are built once per fiber: [effc] records a
   charge's or a yield's payload in the worker and returns the same
   [suspend] each time, typed at [unit] through the effect's GADT
   refinement, so an effect allocates no handler closure or option. *)
and run_fiber w f main =
  let t = w.wsched in
  let open Effect.Deep in
  let suspend = Some (fun (k : (unit, unit) continuation) -> f.cont <- k) in
  let park =
    Some
      (fun (k : (unit, unit) continuation) ->
        w.disposition <- Suspended;
        f.cont <- k;
        probe_suspend t f f.park_phase;
        let wt = alloc_waiter t f ~urgency:f.park_urgency in
        f.fwaiter <- Some wt;
        if f.park_deadline < no_deadline then begin
          (* the expiry is an engine event that wakes this park only *)
          let gen = wt.wgen in
          Engine.schedule_at t.eng ~time:f.park_deadline (fun () ->
              if wt.wgen = gen then ignore (wake_waiter wt Timed_out))
        end;
        let register = f.park_register in
        f.park_register <- ignore;
        register wt)
  in
  match_with main ()
    {
      retc = (fun () -> ());
      exnc =
        (fun e ->
          if t.failure = None then begin
            t.failure <- Some e;
            (* the re-raise in run_until_quiescent loses the original
               trace; surface it here when backtraces are on *)
            if Printexc.backtrace_status () then
              prerr_string
                (Printf.sprintf "fiber exception: %s
%s" (Printexc.to_string e)
                   (Printexc.get_backtrace ()))
          end);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | E_charge_time ->
            w.charge_ns <- ns_of_instr t w f.pending_instr;
            f.pending_instr <- 0;
            w.disposition <- Charged;
            suspend
          | E_yield u ->
            w.yield_urgency <- u;
            w.disposition <- Yielded;
            suspend
          | E_park -> park
          | _ -> None);
    }

and wake f urgency =
  let w = f.fworker in
  (match urgency with High -> Queue.push f w.runq_hi | Low -> Queue.push f w.runq_lo);
  if not w.busy then worker_loop w

(* Deliver a wake reason to a parked waiter, take it out of its wait
   queue if one still links it (a timeout), and re-queue its fiber at
   the urgency recorded at park time. Idempotent: the first wake wins,
   a later one (a signal racing a timeout) is a no-op. Returns whether
   this call did the wake. *)
and wake_waiter wt reason =
  match wt.wstate with
  | Woken _ -> false
  | Parked ->
    wt.wstate <- Woken reason;
    if wt.wqueue != no_queue then unlink wt;
    (match reason with
    | Timed_out -> Obs.Counter.incr wt.wfiber.fworker.wsched.n_timeouts
    | Signalled -> ());
    wake wt.wfiber wt.wurgency;
    true

let create ?obs eng cfg =
  let counter metric =
    match obs with Some reg -> Obs.counter reg metric | None -> Obs.Counter.create ()
  in
  let sched =
    {
      cfg;
      eng;
      ctrs = Counters.create ?obs ();
      workers = [||];
      global_tasks = Queue.create ();
      live = 0;
      failure = None;
      created_at = Engine.now eng;
      trace = None;
      waiter_free = None;
      waiter_free_len = 0;
      n_timeouts = counter "sched.timeouts";
      lock_wait_ring = Array.make lock_wait_window 0;
      lock_wait_n = 0;
    }
  in
  (match obs with
  | None -> ()
  | Some reg -> Obs.float_fn reg "sched.busy_fraction" (fun () -> busy_fraction sched));
  sched.workers <-
    Array.init cfg.n_workers (fun wid ->
        let speed =
          if cfg.n_workers > cfg.cpu.Cpu.virtual_cores then 1.0
          else Cpu.worker_speed cfg.cpu ~n_workers:cfg.n_workers ~worker:wid
        in
        let rec w =
          {
            wid;
            wsched = sched;
            speed;
            runq_hi = Queue.create ();
            runq_lo = Queue.create ();
            local_tasks = Queue.create ();
            free_slots = cfg.slots_per_worker;
            slot_free = Array.make cfg.slots_per_worker true;
            busy = false;
            last_fiber = -1;
            disposition = Ran_to_completion;
            charge_ns = 0;
            yield_urgency = High;
            wloop = (fun () -> worker_loop w);
            busy_ns = 0;
            carry_ns = 0;
          }
        in
        w);
  sched


let kick_any t =
  let rec go i =
    if i < Array.length t.workers then begin
      let w = t.workers.(i) in
      if (not w.busy) && (w.free_slots > 0 || not (Queue.is_empty w.runq_lo)) then worker_loop w
      else go (i + 1)
    end
  in
  go 0

let submit ?affinity t run =
  (match affinity with
  | Some a ->
    let w = t.workers.(a mod t.cfg.n_workers) in
    Queue.push { run } w.local_tasks;
    if not w.busy then worker_loop w
  | None ->
    Queue.push { run } t.global_tasks;
    kick_any t);
  ()

let run_until_quiescent t =
  Engine.run t.eng;
  (match t.failure with
  | Some e ->
    t.failure <- None;
    raise e
  | None -> ());
  if t.live > 0 then
    Phoebe_error.bug ~subsystem:"runtime.scheduler"
      "deadlock: %d fiber(s) still live with no pending events" t.live

(* ------------------------------------------------------------------ *)
(* Fiber-side operations                                               *)

let in_fiber () = !cur <> None

(* Charges are coalesced: the component counters update immediately (the
   Exp 7 accounting stays exact), but the virtual-time advance is
   batched into ~[granule]-instruction steps. This cuts simulator events
   per transaction by an order of magnitude; interleaving granularity
   between cores coarsens from each micro-operation to the granule,
   which leaves all suspension-point (lock/IO) interleavings intact. *)
let charge_granule_instr = 20_000

let flush_pending () =
  match !cur with
  | Some f when f.pending_instr > 0 -> Effect.perform E_charge_time
  | _ -> ()

(* lint: hot-path *)
let charge comp instr =
  match !cur with
  | Some f when instr > 0 ->
    Counters.add !cur_ctrs comp instr;
    f.pending_instr <- f.pending_instr + instr;
    if f.pending_instr >= charge_granule_instr then flush_pending ()
  | _ -> ()

(* Note: suspension effects must NOT flush pending charge time first —
   a flush is itself a suspension, and e.g. a wait whose caller just
   checked the holder's liveness would open a lost-wakeup window.
   Residual time is carried onto the worker's next dispatch instead
   (see [continue_after_carry]), which is exact. *)
let yield_effect = function High -> yield_high | Low -> yield_low
let yield u = match !cur with Some _ -> Effect.perform (yield_effect u) | None -> ()

(* ------------------------------------------------------------------ *)
(* The wait core. Every suspension in the kernel — device
   completions, WAL durability, lock waits, condition queues — goes
   through [park]; latch spins go through [spin_yield]. *)

let resolve_bound f = function
  | Inherit -> f.fdeadline
  | Never -> no_deadline
  | At d -> min d f.fdeadline

let record_lock_wait t d =
  t.lock_wait_ring.(t.lock_wait_n mod lock_wait_window) <- d;
  t.lock_wait_n <- t.lock_wait_n + 1

let lock_wait_p95_ns t =
  let n = min t.lock_wait_n lock_wait_window in
  if n = 0 then 0
  else begin
    let a = Array.sub t.lock_wait_ring 0 n in
    Array.sort Int.compare a;
    a.(min (n - 1) (n * 95 / 100))
  end

let park ?(deadline = Inherit) ~urgency ~phase register =
  match !cur with
  | None -> Phoebe_error.bug ~subsystem:"runtime.scheduler" "park: not inside a fiber"
  | Some f ->
    let t = f.fworker.wsched in
    (* The sanitizer's park-while-latched rule fires fiber-side, before
       the effect, so the Bug unwinds this fiber like any kernel
       exception. [Trace.latch_exempt] decides which waits may hold a
       latch, for this check and the static analyzer alike. *)
    if Sanitize.on () then
      Sanitize.on_park ~fiber:f.fid ~exempt:(Trace.latch_exempt phase) ~label:(Trace.phase_label phase);
    let dl = resolve_bound f deadline in
    let t0 = Engine.now t.eng in
    f.park_urgency <- urgency;
    f.park_deadline <- dl;
    f.park_phase <- phase;
    f.park_register <- register;
    Effect.perform E_park;
    let r =
      match f.fwaiter with
      | Some ({ wstate = Woken r; _ } as wt) ->
        f.fwaiter <- None;
        release_waiter t wt;
        r
      | _ ->
        Phoebe_error.bug ~subsystem:"runtime.scheduler" "park: fiber %d resumed while still parked"
          f.fid
    in
    (* Lock-wait durations feed the admission controller's p95 signal;
       recording is a ring-buffer store, free of simulation effects. *)
    (match phase with Trace.Lock_wait -> record_lock_wait t (Engine.now t.eng - t0) | _ -> ());
    r

(* A deadline-bounded spin step: latch acquisition keeps its charge +
   high-urgency-yield shape (parking would alter instruction counts and
   interleavings), but each turn checks the resolved deadline. With no
   deadline this is exactly [yield High]. *)
let spin_yield ?(deadline = Inherit) u =
  match !cur with
  | None -> Signalled
  | Some f ->
    let dl = resolve_bound f deadline in
    if dl <= Engine.now f.fworker.wsched.eng then begin
      Obs.Counter.incr f.fworker.wsched.n_timeouts;
      Timed_out
    end
    else begin
      Effect.perform (yield_effect u);
      Signalled
    end

let set_txn_deadline d =
  match !cur with
  | None -> ()
  | Some f -> f.fdeadline <- (match d with None -> no_deadline | Some abs_ns -> abs_ns)

let io_wait register =
  match !cur with
  | Some _ ->
    ignore
      (park ~deadline:Never ~urgency:High ~phase:Trace.Io_wait (fun wt ->
           register (fun () -> ignore (wake_waiter wt Signalled))))
  | None -> register (fun () -> ())

let current_fiber () =
  match !cur with
  | Some f -> f
  | None -> Phoebe_error.bug ~subsystem:"runtime.scheduler" "current_fiber: not inside a fiber"

let current_fiber_id () = match !cur with Some f -> f.fid | None -> 0

let current_worker () = (current_fiber ()).fworker.wid

let current_slot () = match !cur with Some f -> global_slot f | None -> -1

let current_cost () = !cur_cost

(* ------------------------------------------------------------------ *)
(* Span probes callable from kernel code (Txnmgr, Wal, benchmarks).
   All are no-ops outside a fiber or with tracing disabled, and pure
   mutation otherwise — safe on commit/abort/flush hot paths. *)

let span_begin () =
  match !cur with
  | None -> ()
  | Some f -> (
    let t = f.fworker.wsched in
    match t.trace with
    | Some tr -> Trace.begin_span tr ~slot:(global_slot f) ~now:(Engine.now t.eng)
    | None -> ())

let span_end outcome =
  match !cur with
  | None -> ()
  | Some f -> (
    let t = f.fworker.wsched in
    match t.trace with
    | Some tr -> Trace.end_span tr ~slot:(global_slot f) ~now:(Engine.now t.eng) ~outcome
    | None -> ())

let span_kind k =
  match !cur with
  | None -> ()
  | Some f -> (
    match f.fworker.wsched.trace with
    | Some tr -> Trace.set_kind tr ~slot:(global_slot f) k
    | None -> ())

module Waitq = struct
  (* FIFO, intrusively linked through the waiters' [wnext] field: a wait
     enqueues no cells and a drain frees the nodes for reuse. Only
     parked waiters are linked: a timeout unlinks its waiter at once
     (see [wake_waiter]). *)
  type q = waitq

  let create () : q = { qhead = None; qtail = None }

  let enqueue q wt =
    let cell = Some wt in
    wt.wnext <- None;
    wt.wqueue <- q;
    (match q.qtail with None -> q.qhead <- cell | Some tl -> tl.wnext <- cell);
    q.qtail <- cell

  let wait_r ?deadline q = park ?deadline ~urgency:Low ~phase:Trace.Lock_wait (fun wt -> enqueue q wt)

  let wait q = ignore (wait_r ~deadline:Never q)

  let rec signal_all q =
    match q.qhead with
    | None -> ()
    | Some wt ->
      q.qhead <- wt.wnext;
      if q.qhead = None then q.qtail <- None;
      wt.wnext <- None;
      wt.wqueue <- no_queue;
      ignore (wake_waiter wt Signalled);
      signal_all q

  let length q =
    let rec go n = function None -> n | Some wt -> go (n + 1) wt.wnext in
    go 0 q.qhead

  let is_empty q = q.qhead = None
end
