module Engine = Phoebe_sim.Engine
module Scheduler = Phoebe_runtime.Scheduler
module Device = Phoebe_io.Device
module Pagestore = Phoebe_io.Pagestore
module Walstore = Phoebe_io.Walstore
module Bufmgr = Phoebe_storage.Bufmgr
module Latch = Phoebe_storage.Latch
module Pax = Phoebe_storage.Pax
module Value = Phoebe_storage.Value
module Wal = Phoebe_wal.Wal
module Recovery = Phoebe_wal.Recovery
module Txnmgr = Phoebe_txn.Txnmgr
module Twin = Phoebe_txn.Twin
module Undo = Phoebe_txn.Undo
module Clock = Phoebe_txn.Clock
module Obs = Phoebe_obs.Obs
module Trace = Phoebe_obs.Trace
module Phoebe_error = Phoebe_util.Phoebe_error
module Sanitize = Phoebe_sanitize.Sanitize

type t = {
  cfg : Config.t;
  eng : Engine.t;
  obs : Obs.t;
  sched : Scheduler.t;
  data_dev : Device.t;
  wal_dev : Device.t;
  buf : Pax.t Bufmgr.t;
  block_store : Pagestore.t;
  walmgr : Wal.t;
  txns : Txnmgr.t;
  mutable table_list : Table.t list;  (** newest first *)
  by_name : (string, Table.t) Hashtbl.t;
  by_id : (int, Table.t) Hashtbl.t;
  mutable next_table_id : int;
  mutable next_block_id : int;
  commits_since_gc : int array;  (** per worker *)
  gc_pending : bool array;
  n_shed : Obs.Counter.t;
  mutable inflight : int;  (** transactions submitted and not yet finished *)
}

exception Overloaded

(* Housekeeping cadence: a worker schedules UNDO GC after this many
   commits (§7.1). *)
let gc_every_n_commits = 64

(* Automatic retries of a transaction after a transient abort. *)
let max_txn_retries = 8

(* Freezing threshold: leaves accessed at most this often join the
   frozen prefix (§5.2). *)
let freeze_max_access = 2

let pax_codec : Pax.t Bufmgr.codec =
  { Bufmgr.encode = Pax.encode; decode = Pax.decode; size = Pax.size_bytes }

(* The steal guard (Bufmgr's two parts). Pages are updated in place and
   the WAL is redo-only, so a dirty page flushed mid-transaction
   (cleaner, eviction, checkpoint) would put uncommitted values on
   durable media that recovery can never roll back. Before an image
   leaves for the store, the page's twin table is walked: a page whose
   chain heads are all durably committed (the common case) is written
   as-is, copy-free. Otherwise the uncommitted prefix of every version
   chain — the active transactions' before-images — is applied to a
   copy, reconstructing the committed view; the live page is never
   touched. Uncommitted entries are always a prefix of a chain: the
   tuple lock admits one active writer per tuple at a time. *)
(* A twin entry is safe to persist only once its transaction is both
   commit-stamped and past its durability wait: between the [ets] stamp
   and [Wal.commit_durable] returning, a stolen flush would put
   committed-looking data on media with no durable commit record to
   justify it after a crash. *)
let durably_committed txns (u : Undo.t) =
  Undo.is_committed u && u.Undo.ets <= Txnmgr.durable_commit_ts txns ~slot:u.Undo.slot

(* The one twin walk both parts share: does some row's chain head still
   need undoing? Stops at the first such head and copies nothing. *)
let twin_unsafe txns twin =
  match
    Twin.iter twin (fun _rid entry ->
        match Twin.chain_head entry with
        | Some u when not (durably_committed txns u) -> raise_notrace Exit
        | _ -> ())
  with
  | () -> false
  | exception Exit -> true

let page_unsafe txns ~page_id (_ : Pax.t) =
  match Txnmgr.twin_of_page txns ~page_id with
  | None -> false
  | Some twin -> twin_unsafe txns twin

let strip_page txns ~page_id (p : Pax.t) =
  match Txnmgr.twin_of_page txns ~page_id with
  | Some twin when twin_unsafe txns twin ->
    let copy = Pax.copy p in
    Twin.iter twin (fun rid entry ->
        match Pax.find copy ~row_id:rid with
        | -1 -> ()
        | slot ->
          let rec undo = function
            | Some (u : Undo.t) when (not u.Undo.reclaimed) && not (durably_committed txns u) ->
              (match u.Undo.kind with
              | Undo.Created -> Pax.mark_deleted copy ~slot
              | Undo.Updated before ->
                Array.iter (fun (col, v) -> Pax.set_col copy ~slot ~col v) before
              | Undo.Deleted before ->
                Array.iteri (fun col v -> Pax.set_col copy ~slot ~col v) before;
                Pax.unmark_deleted copy ~slot);
              undo u.Undo.next
            | _ -> ()
          in
          undo (Twin.chain_head entry));
    copy
  | _ -> p

let steal_guard txns = { Bufmgr.unsafe = page_unsafe txns; strip = strip_page txns }

(* The sanitizer plane is a process-global singleton; the collector
   exports its per-rule finding counts and the replay digest through
   this instance's registry ([bench --sanitize --json] reads these). *)
let export_sanitizer obs =
  Obs.add_collector obs (fun () ->
      ("sanitize.replay_digest", Obs.Int (Sanitize.replay_digest ()))
      :: ("sanitize.findings", Obs.Int (Sanitize.total_findings ()))
      :: List.map (fun (k, v) -> ("sanitize." ^ k, Obs.Int v)) (Sanitize.finding_counts ()))

let fault_cfg (cfg : Config.t) i =
  Option.map
    (fun (fc : Device.fault_config) -> { fc with Device.fault_seed = fc.Device.fault_seed + i })
    cfg.Config.faults

(* The one instance builder. A fresh build ([old] absent) creates the
   three devices and their stores; a restart ([old] given) attaches to
   the crashed instance's engine, devices, Data Page / Data Block stores
   and WAL store, resumes its WAL sequences and block ids, and rebuilds
   every volatile part exactly as a fresh build would. Construction
   order is part of the contract: sanitizer scope ids and registry names
   follow it. *)
let build ?old eng (cfg : Config.t) =
  (* A fresh build resets the sanitizer; a restart enables it only if it
     is off: the shared WAL store's durable frontiers must keep their
     cross-crash monotonicity history. *)
  if cfg.Config.sanitize && (Option.is_none old || not (Sanitize.on ())) then Sanitize.enable ();
  (* On restart the shared devices keep reporting into the old
     instance's registry; this one gets the rebuilt components. *)
  let obs = Obs.create () in
  if cfg.Config.sanitize then export_sanitizer obs;
  let sched_cfg =
    {
      Scheduler.model = cfg.Config.model;
      n_workers = cfg.Config.n_workers;
      slots_per_worker = cfg.Config.slots_per_worker;
      cpu = cfg.Config.cpu;
      cost = cfg.Config.cost;
    }
  in
  let sched = Scheduler.create ~obs eng sched_cfg in
  let n_slots = cfg.Config.n_workers * cfg.Config.slots_per_worker in
  if cfg.Config.spans then Scheduler.set_trace sched (Trace.create ~obs ~n_slots ());
  let data_dev, wal_dev, data_store, block_store =
    match old with
    | Some o -> (o.data_dev, o.wal_dev, Bufmgr.store o.buf, o.block_store)
    | None ->
      let dev i name dcfg = Device.create ~obs ?faults:(fault_cfg cfg i) eng ~name dcfg in
      let data_dev = dev 0 "data" cfg.Config.data_device in
      let wal_dev = dev 1 "wal" cfg.Config.wal_device in
      let block_dev = dev 2 "blocks" Device.pm9a3 in
      (data_dev, wal_dev, Pagestore.create data_dev, Pagestore.create block_dev)
  in
  let buf =
    Bufmgr.create ~obs eng ~store:data_store ~partitions:cfg.Config.n_workers
      ~budget_bytes:cfg.Config.buffer_bytes ~codec:pax_codec
  in
  Bufmgr.attach_cleaner buf ~scheduler:sched cfg.Config.cleaner;
  (* after the pool, not with the devices: scope ids follow this order *)
  let wal_store = match old with Some o -> Wal.store o.walmgr | None -> Walstore.create wal_dev in
  let walmgr =
    Wal.create ~obs eng ~store:wal_store ~n_slots cfg.Config.wal
  in
  let clock = Clock.create () in
  let contention =
    match cfg.Config.lock_style with
    | Config.Decentralized -> None
    | Config.Global_serialized { lock_hold_ns; snapshot_hold_ns } ->
      Some
        {
          Txnmgr.engine = eng;
          lock_table = Some (Phoebe_sim.Resource.create eng ~name:"lock_table", lock_hold_ns);
          proc_array = Some (Phoebe_sim.Resource.create eng ~name:"proc_array", snapshot_hold_ns);
        }
  in
  let txns =
    Txnmgr.create ~obs ~clock ~wal:walmgr ~n_slots ~snapshot_mode:cfg.Config.snapshot_mode
      ?contention ()
  in
  Bufmgr.set_steal_guard buf (steal_guard txns);
  {
    cfg;
    eng;
    obs;
    sched;
    data_dev;
    wal_dev;
    buf;
    block_store;
    walmgr;
    txns;
    table_list = [];
    by_name = Hashtbl.create 16;
    by_id = Hashtbl.create 16;
    next_table_id = 0;
    next_block_id = (match old with Some o -> o.next_block_id | None -> 0);
    commits_since_gc = Array.make cfg.Config.n_workers 0;
    gc_pending = Array.make cfg.Config.n_workers false;
    n_shed = Obs.counter obs "db.shed";
    inflight = 0;
  }

let create_on eng cfg = build eng cfg
let create cfg = build (Engine.create ()) cfg
let create_attached old cfg = build ~old old.eng cfg

let config t = t.cfg
let engine t = t.eng
let obs t = t.obs
let trace t = Scheduler.trace t.sched
let scheduler t = t.sched
let txnmgr t = t.txns
let wal t = t.walmgr
let buffer t = t.buf
let data_device t = t.data_dev
let wal_device t = t.wal_dev
let now t = Engine.now t.eng

(* ------------------------------------------------------------------ *)
(* DDL *)

let create_table ?manifest t ~name ~schema =
  if Hashtbl.mem t.by_name name then invalid_arg ("Db.create_table: duplicate table " ^ name);
  t.next_table_id <- t.next_table_id + 1;
  let block_id_alloc () =
    t.next_block_id <- t.next_block_id + 1;
    t.next_block_id
  in
  let table =
    Table.create ?manifest ~id:t.next_table_id ~name ~schema:(Value.Schema.make schema) ~buf:t.buf
      ~block_store:t.block_store ~block_id_alloc ~txnmgr:t.txns ~wal:t.walmgr
      ~leaf_capacity:t.cfg.Config.leaf_capacity ()
  in
  t.table_list <- table :: t.table_list;
  Hashtbl.replace t.by_name name table;
  Hashtbl.replace t.by_id (Table.id table) table;
  table

let create_index _t table ~name ~cols ~unique = Table.add_index table ~name ~cols ~unique

let table t name =
  match Hashtbl.find_opt t.by_name name with Some tbl -> tbl | None -> raise Not_found

let tables t = List.rev t.table_list

let table_by_id t id =
  match Hashtbl.find_opt t.by_id id with
  | Some tbl -> tbl
  | None -> Phoebe_error.bug ~subsystem:"core.db" "unknown table id %d" id

(* ------------------------------------------------------------------ *)
(* Transactions *)

let current_slot_or_zero () = if Scheduler.in_fiber () then Scheduler.current_slot () else 0

let rollback_one t (undo : Phoebe_txn.Undo.t) =
  match Hashtbl.find_opt t.by_id undo.Phoebe_txn.Undo.table_id with
  | Some table -> Table.rollback_undo table undo
  | None -> ()

let begin_txn ?(isolation = Txnmgr.Read_committed) t =
  Txnmgr.begin_txn t.txns ~isolation ~slot:(current_slot_or_zero ())

let abort_txn t txn = Txnmgr.abort t.txns txn ~rollback:(rollback_one t)

(* The per-attempt deadline: armed on the fiber before the transaction
   begins (so even the first lock wait can time out), cleared before
   commit and before rollback — once the outcome is decided, the commit
   must complete and the rollback's own latch/WAL waits must not
   re-raise {!Latch.Timeout} forever. *)
let arm_deadline t =
  if t.cfg.Config.txn_deadline_ns > 0 && Scheduler.in_fiber () then
    Scheduler.set_txn_deadline (Some (Engine.now t.eng + t.cfg.Config.txn_deadline_ns))

let disarm_deadline () = Scheduler.set_txn_deadline None

let retryable = function Txnmgr.Deadlock | Txnmgr.Conflict -> true | _ -> false

let with_txn ?(isolation = Txnmgr.Read_committed) t body =
  let rec attempt n =
    arm_deadline t;
    let txn = Txnmgr.begin_txn t.txns ~isolation ~slot:(current_slot_or_zero ()) in
    match body txn with
    | result ->
      disarm_deadline ();
      Txnmgr.commit t.txns txn;
      result
    | exception Txnmgr.Abort (reason, msg) ->
      disarm_deadline ();
      Txnmgr.abort ~reason t.txns txn ~rollback:(rollback_one t);
      if retryable reason && n < max_txn_retries then begin
        (* back off before retrying so transactions we just woke get to
           run first — retrying inline would starve them *)
        Scheduler.yield Scheduler.Low;
        attempt (n + 1)
      end
      else raise (Txnmgr.Abort (reason, msg))
    | exception Latch.Timeout ->
      (* a latch spin observed the deadline expire *)
      disarm_deadline ();
      Txnmgr.abort ~reason:Txnmgr.Deadline t.txns txn ~rollback:(rollback_one t);
      raise (Txnmgr.Abort (Txnmgr.Deadline, "latch wait exceeded the transaction deadline"))
    | exception e ->
      disarm_deadline ();
      Txnmgr.abort t.txns txn ~rollback:(rollback_one t);
      raise e
  in
  attempt 0

(* Reclaim the UNDO logs of slots [first..last] that no snapshot above
   [watermark] can need, each through its table's index cleanup; returns
   how many were reclaimed. *)
let gc_slots t ~watermark ~first ~last =
  let reclaim (undo : Phoebe_txn.Undo.t) =
    match Hashtbl.find_opt t.by_id undo.Phoebe_txn.Undo.table_id with
    | Some table -> Table.gc_reclaim_undo table undo
    | None -> ()
  in
  let n = ref 0 in
  for s = first to last do
    n := !n + Txnmgr.gc_slot t.txns ~slot:s ~watermark ~on_reclaim:reclaim
  done;
  !n

(* Housekeeping runs in its own fiber on the worker's task slots (the
   paper's dedicated page-swap and GC slots, §7.1). *)
let housekeeping_task t worker () =
  let slots = t.cfg.Config.slots_per_worker in
  let watermark = Txnmgr.min_active_start_ts t.txns in
  ignore (gc_slots t ~watermark ~first:(worker * slots) ~last:(((worker + 1) * slots) - 1));
  (* the twin-table sweep walks every page's table: one sweeper suffices *)
  if worker = 0 then ignore (Txnmgr.gc_twins t.txns ~watermark);
  if Bufmgr.needs_maintenance t.buf ~partition:worker then Bufmgr.maintain t.buf ~partition:worker;
  t.gc_pending.(worker) <- false

let after_commit_housekeeping t =
  if Scheduler.in_fiber () then begin
    let w = Scheduler.current_worker () in
    t.commits_since_gc.(w) <- t.commits_since_gc.(w) + 1;
    let due =
      t.commits_since_gc.(w) >= gc_every_n_commits
      || (t.commits_since_gc.(w) >= 8 && Bufmgr.needs_maintenance t.buf ~partition:w)
    in
    if due && not (t.gc_pending.(w)) then begin
      t.commits_since_gc.(w) <- 0;
      t.gc_pending.(w) <- true;
      Scheduler.submit ~affinity:w t.sched (housekeeping_task t w)
    end
  end

(* Admission control (overload shedding): refuse new transactions while
   either trigger fires — too many in flight, or the recent lock-wait
   p95 says the lock queues are saturating. Shedding at the door keeps
   admitted transactions' latency bounded instead of letting everyone
   degrade together. *)
let admission_max_inflight t =
  let a = t.cfg.Config.admission in
  if a.Config.max_inflight > 0 then a.Config.max_inflight
  else 4 * t.cfg.Config.n_workers * t.cfg.Config.slots_per_worker

let admit t =
  let a = t.cfg.Config.admission in
  if not a.Config.enabled then true
  else begin
    let shed =
      t.inflight >= admission_max_inflight t
      || (a.Config.max_lock_wait_p95_ns > 0
          && Scheduler.lock_wait_p95_ns t.sched > a.Config.max_lock_wait_p95_ns)
    in
    if shed then Obs.Counter.incr t.n_shed;
    not shed
  end

let inflight t = t.inflight
let sheds t = Obs.Counter.get t.n_shed

let submit ?affinity ?isolation ?(on_done = fun () -> ()) t body =
  if not (admit t) then raise Overloaded;
  t.inflight <- t.inflight + 1;
  Scheduler.submit ?affinity t.sched (fun () ->
      (try with_txn ?isolation t body
       with Txnmgr.Abort _ -> () (* retries exhausted: drop, counted in stats *));
      t.inflight <- t.inflight - 1;
      after_commit_housekeeping t;
      on_done ())

let run t = Scheduler.run_until_quiescent t.sched

let run_for t ~ns = Engine.run_until t.eng ~time:(Engine.now t.eng + ns)

(* ------------------------------------------------------------------ *)
(* Maintenance *)

let checkpoint t =
  let completed = ref false in
  Wal.flush_all t.walmgr ~on_done:(fun () -> completed := true);
  Engine.run t.eng;
  if not !completed then
    Phoebe_error.bug ~subsystem:"core.db" "checkpoint: WAL flush did not complete after engine drain"

type crash_report = {
  wal_files : (int * int * int) list;  (** (file, surviving bytes, lost bytes) *)
  volatile_pages : int;  (** data/block pages that existed only in the volatile view *)
}

(* Power loss, at whatever virtual-time point the engine happens to be:
   active transactions, in-flight WAL flushes and dirty pages all die
   where they stand. Nothing is snapshotted or flushed — every pending
   event is dropped and every store is cut back to its durable frontier.
   The handle must not run transactions afterwards; hand the surviving
   stores to [Checkpoint.restore]. *)
let crash ?tear t =
  Engine.clear t.eng;
  let wal_files = Walstore.crash ?tear (Wal.store t.walmgr) in
  let data_lost = Pagestore.crash (Bufmgr.store t.buf) in
  let block_lost = Pagestore.crash t.block_store in
  { wal_files; volatile_pages = data_lost + block_lost }

let wal_lost_bytes r = List.fold_left (fun acc (_, _, lost) -> acc + lost) 0 r.wal_files

(* The fsync barrier under a checkpoint: both page stores must converge
   onto durable media before a snapshot referencing their pages may be
   published as a recovery point. *)
let sync_stores t =
  let pending = ref 2 in
  Pagestore.sync (Bufmgr.store t.buf) ~on_complete:(fun () -> decr pending);
  Pagestore.sync t.block_store ~on_complete:(fun () -> decr pending);
  Engine.run t.eng;
  if !pending <> 0 then
    Phoebe_error.bug ~subsystem:"core.db" "sync_stores: page-store sync did not converge"

let gc t =
  let watermark = Txnmgr.min_active_start_ts t.txns in
  let n =
    gc_slots t ~watermark ~first:0 ~last:((t.cfg.Config.n_workers * t.cfg.Config.slots_per_worker) - 1)
  in
  ignore (Txnmgr.gc_twins t.txns ~watermark);
  n

let freeze_tables t =
  List.fold_left
    (fun acc table -> acc + Table.maybe_freeze table ~max_access:freeze_max_access)
    0 (tables t)

let raw_apply t =
  {
    Recovery.insert = (fun ~table ~rid row -> Table.raw_insert (table_by_id t table) ~rid row);
    update = (fun ~table ~rid cols -> Table.raw_update (table_by_id t table) ~rid cols);
    delete = (fun ~table ~rid -> Table.raw_delete (table_by_id t table) ~rid);
  }

let replay_wal ?after ?decide_in_doubt t ~from =
  let report = Recovery.replay ?after ?decide_in_doubt from (raw_apply t) in
  (* replaying its own log (a restart): the writers continue after the
     replay's decode *)
  if Int.equal (Walstore.id from) (Walstore.id (Wal.store t.walmgr)) then Wal.resume t.walmgr report;
  (* a lossy restore must be visible, not silent *)
  Obs.Counter.add (Obs.counter t.obs "wal.recovery.torn_tails") report.Recovery.torn_tails;
  Obs.Counter.add (Obs.counter t.obs "wal.recovery.bytes_skipped") report.Recovery.bytes_skipped;
  Obs.Counter.add
    (Obs.counter t.obs "wal.recovery.corrupt_records")
    report.Recovery.corrupt_records;
  report

(* ------------------------------------------------------------------ *)
(* Statistics *)

type stats = {
  committed : int;
  aborted : int;
  deadline_aborts : int;
  sheds : int;
  wait_timeouts : int;
  wal_records : int;
  wal_bytes : int;
  wal_durable_bytes : int;
  rfa_local_commits : int;
  rfa_remote_waits : int;
  undo_bytes : int;
  buffer_resident_bytes : int;
  cpu_busy_fraction : float;
  virtual_seconds : float;
}

let stats t =
  {
    committed = Txnmgr.stats_committed t.txns;
    aborted = Txnmgr.stats_aborted t.txns;
    deadline_aborts = Txnmgr.stats_aborted_for t.txns Txnmgr.Deadline;
    sheds = Obs.Counter.get t.n_shed;
    wait_timeouts = Scheduler.timeouts t.sched;
    wal_records = Wal.total_records t.walmgr;
    wal_bytes = Wal.total_bytes t.walmgr;
    wal_durable_bytes = Wal.total_durable_bytes t.walmgr;
    rfa_local_commits = Wal.local_commits t.walmgr;
    rfa_remote_waits = Wal.remote_waits t.walmgr;
    undo_bytes = Txnmgr.undo_bytes t.txns;
    buffer_resident_bytes = Bufmgr.resident_bytes t.buf;
    cpu_busy_fraction = Scheduler.busy_fraction t.sched;
    virtual_seconds = float_of_int (Engine.now t.eng) /. 1e9;
  }

let committed t = Txnmgr.stats_committed t.txns
let aborted t = Txnmgr.stats_aborted t.txns
let cleaner_stats t = Bufmgr.cleaner_stats t.buf
