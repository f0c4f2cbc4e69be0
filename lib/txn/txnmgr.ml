module Scheduler = Phoebe_runtime.Scheduler
module Waitq = Scheduler.Waitq
module Component = Phoebe_sim.Component
module Cost = Phoebe_sim.Cost
module Wal = Phoebe_wal.Wal
module Record = Phoebe_wal.Record

module Resource = Phoebe_sim.Resource
module Engine = Phoebe_sim.Engine
module Obs = Phoebe_obs.Obs
module Trace = Phoebe_obs.Trace
module Sanitize = Phoebe_sanitize.Sanitize

type isolation = Read_committed | Repeatable_read
type state = Active | Prepared | Committed | Aborted
type snapshot_mode = O1_timestamp | Scan_active

type contention = {
  engine : Engine.t;
  lock_table : (Resource.t * int) option;
  proc_array : (Resource.t * int) option;
}

type abort_reason = Deadlock | Deadline | Shed | Conflict | User

exception Abort of abort_reason * string

let reason_label = function
  | Deadlock -> "deadlock"
  | Deadline -> "deadline"
  | Shed -> "shed"
  | Conflict -> "conflict"
  | User -> "user"

type txn = {
  xid : int;
  start_ts : int;
  isolation : isolation;
  slot : int;
  mutable snapshot : int;
  mutable cts : int;
  mutable state : state;
  mutable undo_newest : Undo.t option;
  mutable undo_count : int;
  waiters : Waitq.q;
  mutable needs_remote : bool;
  mutable remote_gsn : int;
  mutable wrote : bool;
  mutable waiting_on : int;
  mutable held_table_locks : Tablelock.t list;
}

type bundle = { bcts : int; bxid : int; undos : Undo.t option }

type t = {
  tclock : Clock.t;
  twal : Wal.t;
  snapshot_mode : snapshot_mode;
  contention : contention option;
  active : (int, txn) Hashtbl.t;
  slot_bundles : bundle Queue.t array;
  slot_last_reclaimed_xid : int array;
  slot_durable_cts : int array;
      (** highest commit timestamp per slot whose commit record is known
          durable — the steal guard's watermark *)
  twins : (int, Twin.t) Hashtbl.t;
  mutable undo_limbo : (int * Undo.t) list;
      (** unreachable undo batches awaiting freelist release, newest
          first; each is (stamp, head linked via [next_in_txn]). A batch
          may be recycled only once every transaction active at [stamp]
          has finished — a reader suspended mid-chain-walk at a
          charge-granule boundary may hold a pointer into it. *)
  live_undo_bytes : Obs.Counter.t;
  n_committed : Obs.Counter.t;
  n_aborted : Obs.Counter.t;
  abort_by_reason : Obs.Counter.t array;  (** indexed by [reason_index] *)
  mutable commit_barrier : (slot:int -> lsn:int -> unit) option;
      (** extra durability barrier run after the local WAL wait of a
          commit/prepare that wrote — replication installs its quorum
          acknowledgement wait here. [None] (the default) is
          branch-only: the event schedule is bit-identical. *)
}

let reason_index = function Deadlock -> 0 | Deadline -> 1 | Shed -> 2 | Conflict -> 3 | User -> 4

let create ?obs ~clock ~wal ~n_slots ?(snapshot_mode = O1_timestamp) ?contention () =
  let counter metric =
    match obs with Some reg -> Obs.counter reg metric | None -> Obs.Counter.create ()
  in
  {
    tclock = clock;
    twal = wal;
    snapshot_mode;
    contention;
    active = Hashtbl.create 256;
    slot_bundles = Array.init n_slots (fun _ -> Queue.create ());
    slot_last_reclaimed_xid = Array.make n_slots 0;
    slot_durable_cts = Array.make n_slots 0;
    twins = Hashtbl.create 1024;
    undo_limbo = [];
    live_undo_bytes = counter "txn.undo_bytes";
    n_committed = counter "txn.committed";
    n_aborted = counter "txn.aborted";
    abort_by_reason =
      (* deadline aborts get the name the overload experiments key on *)
      [|
        counter "txn.abort.deadlock";
        counter "txn.deadline_aborts";
        counter "txn.abort.shed";
        counter "txn.abort.conflict";
        counter "txn.abort.user";
      |];
    commit_barrier = None;
  }

let set_commit_barrier t b = t.commit_barrier <- b

let clock t = t.tclock
let wal t = t.twal

(* Pass through a globally serialised resource: queue behind everyone
   ahead, hold it for [hold_ns], resume when service completes. The
   queueing is lock-table contention, so it parks as a lock wait.
   Outside a fiber (bulk load) the pass completes at once, but the
   service-end event is still scheduled: the event schedule, and so the
   replay digest, does not depend on who passed through. *)
let serialize eng r ~hold_ns =
  let finish = Resource.acquire_for r ~hold_ns in
  if finish > Engine.now eng then
    if Scheduler.in_fiber () then
      ignore
        (Scheduler.park ~deadline:Scheduler.Never ~urgency:Scheduler.High ~phase:Trace.Lock_wait
           (fun wt ->
             Engine.schedule_at eng ~time:finish (fun () ->
                 ignore (Scheduler.wake_waiter wt Scheduler.Signalled))))
    else Engine.schedule_at eng ~time:finish ignore

let through_lock_table t =
  match t.contention with
  | Some { engine; lock_table = Some (r, hold_ns); _ } -> serialize engine r ~hold_ns
  | _ -> ()

let through_proc_array t =
  match t.contention with
  | Some { engine; proc_array = Some (r, hold_ns); _ } -> serialize engine r ~hold_ns
  | _ -> ()

let take_snapshot t =
  let c = Scheduler.current_cost () in
  match t.snapshot_mode with
  | O1_timestamp ->
    Scheduler.charge Component.Mvcc c.Cost.snapshot_acquire;
    Clock.current t.tclock
  | Scan_active ->
    (* PostgreSQL-style: take the proc-array latch, then walk the active
       transactions; O(active transactions) with a serialization point. *)
    (* lint: allow hot-path-alloc — PG-like baseline only: the proc-array queue model parks *)
    through_proc_array t;
    Scheduler.charge Component.Mvcc
      (c.Cost.snapshot_acquire + (c.Cost.snapshot_scan_per_txn * Hashtbl.length t.active));
    Clock.current t.tclock

let begin_txn t ~isolation ~slot =
  let c = Scheduler.current_cost () in
  Scheduler.span_begin ();
  Scheduler.charge Component.Effective c.Cost.txn_begin;
  let start_ts = Clock.next t.tclock in
  let xid = Clock.xid_of_start_ts start_ts in
  let txn =
    {
      xid;
      start_ts;
      isolation;
      slot;
      snapshot = 0;
      cts = 0;
      state = Active;
      undo_newest = None;
      undo_count = 0;
      waiters = Waitq.create ();
      needs_remote = false;
      remote_gsn = 0;
      wrote = false;
      waiting_on = 0;
      held_table_locks = [];
    }
  in
  txn.snapshot <- take_snapshot t;
  Hashtbl.replace t.active xid txn;
  txn

let refresh_snapshot t txn =
  match txn.isolation with
  | Read_committed -> txn.snapshot <- take_snapshot t
  | Repeatable_read -> ()

let add_undo t txn undo =
  Scheduler.charge Component.Mvcc (Scheduler.current_cost ()).Cost.undo_create;
  undo.Undo.next_in_txn <- txn.undo_newest;
  (* lint: allow hot-path-alloc — the rollback list's head cell *)
  txn.undo_newest <- Some undo;
  txn.undo_count <- txn.undo_count + 1;
  txn.wrote <- true;
  Obs.Counter.add t.live_undo_bytes (Undo.size_bytes undo)

let finish t txn final_state =
  txn.state <- final_state;
  Hashtbl.remove t.active txn.xid;
  List.iter (fun tl -> Tablelock.remove_holder tl ~xid:txn.xid) txn.held_table_locks;
  txn.held_table_locks <- [];
  if Sanitize.on () then Sanitize.locks_released_all ~fiber:(Scheduler.current_fiber_id ());
  Waitq.signal_all txn.waiters

(* Two-phase commit, participant side: force a Prepare record (same
   durability rule as a commit record) and park the transaction in
   [Prepared]. Everything else is deliberately left alone — the undo
   chain stays stamped with the xid (the after-images remain invisible
   to readers and the write-back steal guard still treats them as
   uncommitted), locks stay held, and the txn stays in the active table
   so deadlock walks and snapshot watermarks keep seeing it. The
   decision arrives later as a plain {!commit} or {!abort}. *)
let prepare t txn ~gxid ~coord =
  if txn.state <> Active then invalid_arg "Txnmgr.prepare: transaction not active";
  let c = Scheduler.current_cost () in
  Scheduler.charge Component.Effective c.Cost.txn_finalize;
  if txn.wrote then begin
    let gsn = Wal.next_gsn t.twal ~slot:txn.slot ~page_gsn:0 in
    let lsn =
      Wal.append t.twal ~slot:txn.slot (Record.Prepare { xid = txn.xid; gxid; coord }) ~gsn
    in
    let needs_remote, remote_gsn =
      if (Wal.config t.twal).Wal.rfa then (txn.needs_remote, txn.remote_gsn)
      else (true, gsn - 1)
    in
    Wal.commit_durable t.twal ~slot:txn.slot ~lsn ~needs_remote ~remote_gsn;
    match t.commit_barrier with Some barrier -> barrier ~slot:txn.slot ~lsn | None -> ()
  end;
  txn.state <- Prepared

let commit t txn =
  (match txn.state with
  | Active | Prepared -> ()
  | Committed | Aborted -> invalid_arg "Txnmgr.commit: transaction not active");
  let c = Scheduler.current_cost () in
  Scheduler.charge Component.Effective c.Cost.txn_finalize;
  let cts = Clock.next t.tclock in
  txn.cts <- cts;
  (* one scan over the transaction's grouped UNDO logs (§6.2) *)
  Undo.iter_txn txn.undo_newest (fun u ->
      Scheduler.charge Component.Mvcc c.Cost.commit_stamp_per_undo;
      u.Undo.ets <- cts);
  (* Undo-chain well-formedness at the commit boundary: every entry of
     the just-stamped chain must carry this commit's cts, start before
     it, and still be live; the chain length must agree with the
     incremental count. Pure reads — no charges, no schedule effect. *)
  if Sanitize.on () then begin
    let n = ref 0 in
    Undo.iter_txn txn.undo_newest (fun u ->
        incr n;
        if u.Undo.reclaimed then
          Sanitize.violation Sanitize.Undo_chain
            "xid %d: committing an undo entry already reclaimed (table %d rid %d)" txn.xid
            u.Undo.table_id u.Undo.rid;
        if not (Int.equal u.Undo.ets cts) then
          Sanitize.violation Sanitize.Undo_chain
            "xid %d: undo entry carries ets %d after commit stamping at cts %d" txn.xid u.Undo.ets
            cts;
        (* [sts] is the displaced version's timestamp: a commit ts when
           that version was committed, this transaction's xid when it
           chains onto an earlier write of its own, 0 for Created. *)
        if Clock.is_xid u.Undo.sts then begin
          if not (Int.equal u.Undo.sts txn.xid) then
            Sanitize.violation Sanitize.Undo_chain
              "xid %d: undo entry displaces an uncommitted version of foreign xid %d" txn.xid
              u.Undo.sts
        end
        else if u.Undo.sts >= cts then
          Sanitize.violation Sanitize.Undo_chain "xid %d: undo start ts %d not before commit ts %d"
            txn.xid u.Undo.sts cts);
    if !n <> txn.undo_count then
      Sanitize.violation Sanitize.Undo_chain
        "xid %d: undo chain length %d disagrees with undo_count %d" txn.xid !n txn.undo_count
  end;
  if txn.wrote then begin
    let gsn = Wal.next_gsn t.twal ~slot:txn.slot ~page_gsn:0 in
    let lsn = Wal.append t.twal ~slot:txn.slot (Record.Commit { xid = txn.xid; cts }) ~gsn in
    (* without RFA, a commit must wait for every log with a lower GSN to
       be durable (the distributed-logging rule the paper contrasts) *)
    let needs_remote, remote_gsn =
      if (Wal.config t.twal).Wal.rfa then (txn.needs_remote, txn.remote_gsn)
      else (true, gsn - 1)
    in
    Wal.commit_durable t.twal ~slot:txn.slot ~lsn ~needs_remote ~remote_gsn;
    (* a replication barrier extends "durable" to "durable on a quorum":
       the commit's visibility (lock release, watermark advance) stays
       gated until the group acknowledges *)
    match t.commit_barrier with Some barrier -> barrier ~slot:txn.slot ~lsn | None -> ()
  end;
  (* Only now — after the durability wait — may the sanitizer treat this
     transaction's after-images as safe to put on data pages. Before this
     point a stolen page flush could persist data whose commit record
     never reaches the device. *)
  if Sanitize.on () && cts < t.slot_durable_cts.(txn.slot) then
    Sanitize.violation Sanitize.Undo_chain "slot %d: commit ts %d below the durable watermark %d"
      txn.slot cts t.slot_durable_cts.(txn.slot);
  if cts > t.slot_durable_cts.(txn.slot) then t.slot_durable_cts.(txn.slot) <- cts;
  (* bundle joins the slot's GC queue in commit order *)
  if txn.undo_newest <> None then
    Queue.push { bcts = cts; bxid = txn.xid; undos = txn.undo_newest } t.slot_bundles.(txn.slot);
  Obs.Counter.incr t.n_committed;
  Scheduler.span_end Trace.Committed;
  finish t txn Committed

let abort ?(reason = User) t txn ~rollback =
  (match txn.state with
  | Active | Prepared -> ()
  | Committed | Aborted -> invalid_arg "Txnmgr.abort: transaction not active");
  let c = Scheduler.current_cost () in
  Scheduler.charge Component.Effective c.Cost.txn_finalize;
  Undo.iter_txn txn.undo_newest (fun u ->
      rollback u;
      u.Undo.reclaimed <- true;
      Obs.Counter.add t.live_undo_bytes (-Undo.size_bytes u));
  if txn.wrote then begin
    let gsn = Wal.next_gsn t.twal ~slot:txn.slot ~page_gsn:0 in
    ignore (Wal.append t.twal ~slot:txn.slot (Record.Abort { xid = txn.xid }) ~gsn)
  end;
  (* The rolled-back entries were popped from their version chains (each
     was its chain's head under the tuple-lock protocol), so nothing new
     can reach them; readers that captured a pointer before the pop are
     covered by the limbo grace period. The batch stays linked through
     [next_in_txn]. *)
  (match txn.undo_newest with
  | Some head -> t.undo_limbo <- (Clock.current t.tclock, head) :: t.undo_limbo
  | None -> ());
  Obs.Counter.incr t.n_aborted;
  Obs.Counter.incr t.abort_by_reason.(reason_index reason);
  (* spans distinguish cancellations (deadline/shed) from ordinary
     conflict aborts, which are usually retried *)
  Scheduler.span_end (match reason with Deadline | Shed -> Trace.Cancelled | _ -> Trace.Aborted);
  finish t txn Aborted

let active_count t = Hashtbl.length t.active

(* ------------------------------------------------------------------ *)
(* Transaction-ID locks *)

(* Deadlock detection: walk the waiting_on chain from the lock holder;
   if it reaches the requester, granting the wait would close a cycle. *)
let would_deadlock t ~requester ~holder_xid =
  let rec walk xid depth =
    if depth > 64 then false
    else if Int.equal xid requester.xid then true
    else
      match Hashtbl.find_opt t.active xid with
      | None -> false
      | Some holder -> if holder.waiting_on = 0 then false else walk holder.waiting_on (depth + 1)
  in
  walk holder_xid 0

(* A lock wait ended by the wait core instead of the holder: the
   deadline fallback for conflicts the wait-for walk cannot see. *)
let lock_wait_interrupted txn reason what =
  txn.waiting_on <- 0;
  match reason with
  | Scheduler.Signalled -> ()
  | Scheduler.Timed_out ->
    raise (Abort (Deadline, Printf.sprintf "%s exceeded the transaction deadline" what))

let wait_for_txn t txn ~holder_xid =
  let c = Scheduler.current_cost () in
  through_lock_table t;
  Scheduler.charge Component.Lock c.Cost.txnid_lock;
  match Hashtbl.find_opt t.active holder_xid with
  | None -> () (* already finished: the shared lock is granted instantly *)
  | Some holder ->
    if would_deadlock t ~requester:txn ~holder_xid then
      raise (Abort (Deadlock, Printf.sprintf "deadlock waiting for xid %d" holder_xid));
    txn.waiting_on <- holder_xid;
    let r = Waitq.wait_r holder.waiters in
    lock_wait_interrupted txn r (Printf.sprintf "wait for xid %d" holder_xid)

(* ------------------------------------------------------------------ *)
(* Twin tables *)

let twin_for_page t ~page_id =
  match Hashtbl.find t.twins page_id with
  | tw -> tw
  | exception Not_found ->
    (* lint: allow hot-path-alloc — a page's first write: its twin table *)
    let tw = Twin.create () in
    Hashtbl.add t.twins page_id tw;
    tw

let twin_of_page t ~page_id = Hashtbl.find_opt t.twins page_id

let chain_head t ~page_id ~rid =
  match Hashtbl.find t.twins page_id with
  | twin -> Twin.row_head twin ~rid
  | exception Not_found -> None

let durable_commit_ts t ~slot = t.slot_durable_cts.(slot)

(* A module-level loop rather than a closure: every write runs it. *)
let rec acquire_tuple t txn (entry : Twin.entry) (c : Cost.t) =
  if Int.equal entry.Twin.lock_xid 0 || Int.equal entry.Twin.lock_xid txn.xid then begin
    if Int.equal entry.Twin.lock_xid 0 && Sanitize.on () then
      (* lint: allow hot-path-alloc — sanitizer bookkeeping, sanitized runs only *)
      Sanitize.lock_acquired ~fiber:(Scheduler.current_fiber_id ()) ~table:false;
    entry.Twin.lock_xid <- txn.xid
  end
  else begin
    if Hashtbl.mem t.active entry.Twin.lock_xid then
      (* lint: allow hot-path-alloc — lock wait: another writer holds the tuple *)
      wait_tuple_lock t txn entry c
    else entry.Twin.lock_xid <- 0;
    acquire_tuple t txn entry c
  end

and wait_tuple_lock t txn (entry : Twin.entry) (c : Cost.t) =
  if would_deadlock t ~requester:txn ~holder_xid:entry.Twin.lock_xid then
    raise (Abort (Deadlock, "deadlock on tuple lock"));
  txn.waiting_on <- entry.Twin.lock_xid;
  let r = Waitq.wait_r entry.Twin.lock_waiters in
  lock_wait_interrupted txn r "tuple lock wait";
  (* re-acquisition work; charged after the wake — a charge can
     suspend, and nothing may suspend between the liveness check and
     the wait *)
  Scheduler.charge Component.Lock c.Cost.tuple_lock

let lock_tuple t txn (entry : Twin.entry) =
  let c = Scheduler.current_cost () in
  (* lint: allow hot-path-alloc — PG-like baseline only: the global lock table queue model parks *)
  through_lock_table t;
  (match t.contention with
  | Some { lock_table = Some _; _ } -> Scheduler.charge Component.Lock c.Cost.global_lock_table
  | _ -> ());
  Scheduler.charge Component.Lock c.Cost.tuple_lock;
  acquire_tuple t txn entry c

let unlock_tuple _t txn (entry : Twin.entry) =
  if Int.equal entry.Twin.lock_xid txn.xid then begin
    entry.Twin.lock_xid <- 0;
    if Sanitize.on () then
      (* lint: allow hot-path-alloc — sanitizer bookkeeping, sanitized runs only *)
      Sanitize.lock_released ~fiber:(Scheduler.current_fiber_id ()) ~table:false;
    (* lint: allow hot-path-alloc — wakes lock waiters: contention only, an empty queue wakes no one *)
    Waitq.signal_all entry.Twin.lock_waiters
  end

(* Wait for a table lock another transaction holds exclusively. *)
let wait_table_lock t txn tl =
  let holder = Tablelock.exclusive_holder tl in
  if holder <> 0 && would_deadlock t ~requester:txn ~holder_xid:holder then
    raise (Abort (Deadlock, "deadlock on table lock"));
  txn.waiting_on <- (if holder <> 0 then holder else txn.waiting_on);
  let r = Tablelock.wait tl in
  lock_wait_interrupted txn r "table lock wait"

(* A module-level loop rather than a closure: every DML statement on a
   table its transaction does not hold yet runs it. *)
let rec acquire_table t txn tl ~mode (c : Cost.t) =
  Scheduler.charge Component.Lock c.Cost.tuple_lock;
  if Tablelock.is_free_for tl mode ~xid:txn.xid then begin
    if Tablelock.held_by tl ~xid:txn.xid = None then begin
      (* lint: allow hot-path-alloc — once per transaction and table: the held-lock list cell *)
      txn.held_table_locks <- tl :: txn.held_table_locks;
      if Sanitize.on () then
        (* lint: allow hot-path-alloc — sanitizer bookkeeping, sanitized runs only *)
        Sanitize.lock_acquired ~fiber:(Scheduler.current_fiber_id ()) ~table:true
    end;
    Tablelock.add_holder tl mode ~xid:txn.xid
  end
  else begin
    (* lint: allow hot-path-alloc — lock wait: a DDL statement holds the table exclusively *)
    wait_table_lock t txn tl;
    acquire_table t txn tl ~mode c
  end

let lock_table t txn tl ~mode =
  let already =
    match (Tablelock.held_by tl ~xid:txn.xid, mode) with
    | Some Tablelock.Exclusive, _ -> true
    | Some Tablelock.Shared, Tablelock.Shared -> true
    | _ -> false
  in
  if not already then acquire_table t txn tl ~mode (Scheduler.current_cost ())

(* ------------------------------------------------------------------ *)
(* Garbage collection *)

let min_active_start_ts t =
  (* one pass over the active transactions — computed once per GC cycle
     and passed to every slot's reclaim *)
  Scheduler.charge Component.Gc (30 * max 1 (Hashtbl.length t.active));
  Hashtbl.fold (fun _ txn acc -> min acc txn.start_ts) t.active max_int

let max_frozen_xid t =
  Array.fold_left (fun acc x -> min acc x) max_int t.slot_last_reclaimed_xid

let gc_slot t ~slot ~watermark ~on_reclaim =
  let c = Scheduler.current_cost () in
  let q = t.slot_bundles.(slot) in
  let reclaimed = ref 0 in
  let rec go () =
    match Queue.peek_opt q with
    | Some b when b.bcts < watermark ->
      ignore (Queue.pop q);
      Undo.iter_txn b.undos (fun u ->
          Scheduler.charge Component.Gc c.Cost.gc_per_undo;
          on_reclaim u;
          u.Undo.reclaimed <- true;
          Obs.Counter.add t.live_undo_bytes (-Undo.size_bytes u);
          incr reclaimed);
      if b.bxid > t.slot_last_reclaimed_xid.(slot) then t.slot_last_reclaimed_xid.(slot) <- b.bxid;
      go ()
    | _ -> ()
  in
  go ();
  !reclaimed

(* Release limbo batches whose grace period has elapsed: [watermark] is
   {!min_active_start_ts}, so [stamp < watermark] means every
   transaction that was active when the batch became unreachable has
   finished — no suspended reader can still hold a pointer into it.
   Pure memory management: no charges, no schedule effect. *)
let drain_limbo t ~watermark =
  if t.undo_limbo <> [] then begin
    let ready, keep = List.partition (fun (stamp, _) -> stamp < watermark) t.undo_limbo in
    t.undo_limbo <- keep;
    List.iter
      (fun (_, head) ->
        let rec go = function
          | None -> ()
          | Some (u : Undo.t) ->
            let nxt = u.Undo.next_in_txn in
            Undo.release u;
            go nxt
        in
        go (Some head))
      ready
  end

let gc_twins t ~watermark =
  drain_limbo t ~watermark;
  let stamp = Clock.current t.tclock in
  let frozen = max_frozen_xid t in
  let removed = ref 0 in
  let dead_tables = ref [] in
  (* A swept entry's chain is fully reclaimed; relink it through
     [next_in_txn] (its bundle is long gone) and park it in limbo. *)
  let on_dead head =
    let rec relink (u : Undo.t) =
      u.Undo.next_in_txn <-
        (match u.Undo.next with Some nxt when nxt.Undo.reclaimed -> Some nxt | _ -> None);
      match u.Undo.next_in_txn with Some nxt -> relink nxt | None -> ()
    in
    relink head;
    t.undo_limbo <- (stamp, head) :: t.undo_limbo
  in
  Hashtbl.iter
    (fun page_id tw ->
      let before = Twin.entry_count tw in
      Twin.sweep ~on_dead tw;
      removed := !removed + before - Twin.entry_count tw;
      if Twin.entry_count tw = 0 && Twin.max_modifier_xid tw <= frozen then
        dead_tables := page_id :: !dead_tables)
    t.twins;
  List.iter (Hashtbl.remove t.twins) !dead_tables;
  !removed

let undo_bytes t = Obs.Counter.get t.live_undo_bytes
let stats_aborted t = Obs.Counter.get t.n_aborted
let stats_committed t = Obs.Counter.get t.n_committed
let stats_aborted_for t reason = Obs.Counter.get t.abort_by_reason.(reason_index reason)
