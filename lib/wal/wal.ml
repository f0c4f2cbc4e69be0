module Engine = Phoebe_sim.Engine
module Component = Phoebe_sim.Component
module Cost = Phoebe_sim.Cost
module Scheduler = Phoebe_runtime.Scheduler
module Walstore = Phoebe_io.Walstore
module Obs = Phoebe_obs.Obs
module Trace = Phoebe_obs.Trace
module Sanitize = Phoebe_sanitize.Sanitize

type config = { rfa : bool; single_writer : bool }

let default_config = { rfa = true; single_writer = false }

(* Group commit is driven by commits: a waiting committer triggers a
   flush, bytes buffered while a flush is in flight go in the next one,
   and a writer also flushes once this much is buffered. *)
let group_flush_bytes = 16 * 1024

(* The unflushed records are those with LSN in (flushed_lsn, next_lsn):
   the in-flight batch, then the buffer. Only the oldest one's GSN holds
   down the durable floor, so each part keeps its first record's GSN. *)
type writer = {
  wslot : int;
  buf : Buffer.t;
  mutable buf_first_gsn : int;  (** GSN of [buf]'s first record, while [buf] is non-empty *)
  mutable next_lsn : int;
  mutable flushed_lsn : int;
  mutable cur_gsn : int;
  mutable max_buffered_gsn : int;
  mutable max_flushed_gsn : int;
  mutable inflight : bool;
  mutable inflight_lsn : int;
  mutable inflight_gsn : int;
  mutable inflight_first_gsn : int;  (** GSN of the in-flight batch's first record *)
  mutable lsn_waiters : (int * (unit -> unit)) list;
}

type t = {
  engine : Engine.t;
  wstore : Walstore.t;
  cfg : config;
  writers : writer array;
  mutable remote_waiters : (int * (unit -> unit)) list;  (** (gsn, resume) *)
  records : Obs.Counter.t;
  bytes : Obs.Counter.t;
  bytes_durable : Obs.Counter.t;
  n_remote_waits : Obs.Counter.t;
  n_local_commits : Obs.Counter.t;
}

let create ?obs engine ~store ~n_slots cfg =
  let counter metric =
    match obs with Some reg -> Obs.counter reg metric | None -> Obs.Counter.create ()
  in
  let t =
  {
    engine;
    wstore = store;
    cfg;
    writers =
      Array.init n_slots (fun wslot ->
          {
            wslot;
            buf = Buffer.create 4096;
            buf_first_gsn = 0;
            next_lsn = 0;
            flushed_lsn = -1;
            cur_gsn = 0;
            max_buffered_gsn = 0;
            max_flushed_gsn = 0;
            inflight = false;
            inflight_lsn = -1;
            inflight_gsn = 0;
            inflight_first_gsn = 0;
            lsn_waiters = [];
          });
    remote_waiters = [];
    records = counter "wal.records";
    bytes = counter "wal.bytes";
    bytes_durable = counter "wal.bytes.durable";
    n_remote_waits = counter "wal.rfa.remote_waits";
    n_local_commits = counter "wal.rfa.local_commits";
  }
  in
  t

(* Each file is cut back to its last transaction boundary, so neither a
   torn tail nor an uncommitted transaction's data records stay in front
   of the records appended after it. Every writer's GSN resumes past
   the whole log's largest: replay orders records by GSN, and a writer
   whose own file is empty or behind would otherwise log a later commit
   below an earlier one. *)
let resume t { Recovery.tails; max_gsn; _ } =
  List.iter
    (fun { Recovery.file; last_lsn; end_offset } ->
      Walstore.truncate t.wstore ~file end_offset;
      if file < Array.length t.writers then begin
        let w = t.writers.(file) in
        w.next_lsn <- max w.next_lsn (last_lsn + 1);
        w.flushed_lsn <- max w.flushed_lsn last_lsn
      end)
    tails;
  Array.iter
    (fun w ->
      w.cur_gsn <- max w.cur_gsn max_gsn;
      w.max_flushed_gsn <- max w.max_flushed_gsn max_gsn)
    t.writers

let config t = t.cfg

(* The GSN of the writer's oldest unflushed record; [max_int] if none. *)
let oldest_unflushed_gsn w =
  if w.inflight then w.inflight_first_gsn
  else if Buffer.length w.buf > 0 then w.buf_first_gsn
  else max_int

(* The durable-GSN floor: every record with GSN <= floor is durable in
   every writer. A writer with no unflushed records imposes no bound. *)
let durable_floor t =
  Array.fold_left
    (fun floor w ->
      let gsn = oldest_unflushed_gsn w in
      if gsn = max_int then floor else min floor (gsn - 1))
    max_int t.writers

let wake_remote_waiters t =
  let floor = durable_floor t in
  let ready, waiting = List.partition (fun (gsn, _) -> gsn <= floor) t.remote_waiters in
  t.remote_waiters <- waiting;
  List.iter (fun (_, resume) -> resume ()) ready

let wake_lsn_waiters w =
  let ready, waiting = List.partition (fun (lsn, _) -> lsn <= w.flushed_lsn) w.lsn_waiters in
  w.lsn_waiters <- waiting;
  List.iter (fun (_, resume) -> resume ()) ready

(* The writer's buffer goes to the store as it is (blitted, not copied
   out), which leaves it empty for the next batch. *)
(* lint: hot-path *)
let rec flush t w =
  if (not w.inflight) && Buffer.length w.buf > 0 then begin
    let n = Buffer.length w.buf in
    w.inflight <- true;
    w.inflight_lsn <- w.next_lsn - 1;
    w.inflight_gsn <- w.max_buffered_gsn;
    w.inflight_first_gsn <- w.buf_first_gsn;
    (* lint: allow hot-path-alloc — the device write and its completion, one per flush, not per record *)
    Walstore.append_buffer t.wstore ~file:w.wslot w.buf ~on_durable:(fun () ->
        Obs.Counter.add t.bytes_durable n;
        w.flushed_lsn <- w.inflight_lsn;
        w.max_flushed_gsn <- max w.max_flushed_gsn w.inflight_gsn;
        w.inflight <- false;
        (* lint: allow hot-path-alloc — the flush completion: committers resume once per flush *)
        wake_lsn_waiters w;
        (* lint: allow hot-path-alloc — the flush completion: committers resume once per flush *)
        wake_remote_waiters t;
        (* Bytes may have accumulated while this flush was in flight; if
           a committer is waiting on them (here or via the global RFA
           floor), or the group threshold is reached, flush again. *)
        if
          Buffer.length w.buf > 0
          && (w.lsn_waiters <> [] || t.remote_waiters <> []
             || Buffer.length w.buf >= group_flush_bytes)
        then flush t w)
  end

let effective_slot t slot = if t.cfg.single_writer then 0 else slot

let next_gsn t ~slot ~page_gsn =
  let w = t.writers.(effective_slot t slot) in
  w.cur_gsn <- (max w.cur_gsn page_gsn) + 1;
  w.cur_gsn

let observe_page t ~slot ~page_gsn ~writer_slot =
  if (not t.cfg.rfa) || writer_slot < 0 || writer_slot = slot then not t.cfg.rfa
  else page_gsn > t.writers.(writer_slot).max_flushed_gsn

(* lint: hot-path *)
let append t ~slot op ~gsn =
  let slot = effective_slot t slot in
  let w = t.writers.(slot) in
  let lsn = w.next_lsn in
  w.next_lsn <- lsn + 1;
  if Sanitize.on () then
    (* lint: allow hot-path-alloc — sanitizer bookkeeping, sanitized runs only *)
    Sanitize.wal_append ~scope:(Walstore.id t.wstore) ~file:slot ~lsn;
  (* lint: allow hot-path-alloc — the record header, one per record, encoded at once *)
  let record = { Record.slot; lsn; gsn; op } in
  let before = Buffer.length w.buf in
  if before = 0 then w.buf_first_gsn <- gsn;
  Record.encode w.buf record;
  let size = Buffer.length w.buf - before in
  w.max_buffered_gsn <- max w.max_buffered_gsn gsn;
  w.cur_gsn <- max w.cur_gsn gsn;
  Obs.Counter.incr t.records;
  Obs.Counter.add t.bytes size;
  let c = Scheduler.current_cost () in
  Scheduler.charge Component.Wal (c.Cost.wal_record_base + (size / 16 * c.Cost.wal_record_per_byte_x16));
  (* RFA waiters block on the global durable floor: any freshly buffered
     record could be holding it down (registration-time nudges only cover
     records that already existed), so flush eagerly while they wait. *)
  if Buffer.length w.buf >= group_flush_bytes || t.remote_waiters <> [] then flush t w;
  lsn

let flushed_lsn t ~slot = t.writers.(effective_slot t slot).flushed_lsn
let flushed_gsn t ~slot = t.writers.(effective_slot t slot).max_flushed_gsn

(* Durability waits park on the unified wait core with a [Never] bound:
   a commit that reached the WAL must not be severed from its flush by a
   transaction deadline (atomicity), so the wait is uncancellable.
   Outside a fiber, [register] gets a no-op resume and the caller does
   not wait: the flush it submitted reaches media only when the engine
   next runs, so a fiber-less commit is durable after [Db.run] or
   [Db.checkpoint], not when it returns. *)
let wal_wait register =
  if Scheduler.in_fiber () then
    ignore
      (Scheduler.park ~deadline:Scheduler.Never ~urgency:Scheduler.High ~phase:Trace.Wal_wait
         (fun wt -> register (fun () -> ignore (Scheduler.wake_waiter wt Scheduler.Signalled))))
  else register (fun () -> ())

let commit_durable t ~slot ~lsn ~needs_remote ~remote_gsn =
  Scheduler.charge Component.Wal (Scheduler.current_cost ()).Cost.wal_commit;
  let slot = effective_slot t slot in
  let w = t.writers.(slot) in
  if lsn > w.flushed_lsn then begin
    flush t w;
    wal_wait (fun resume ->
        if lsn <= w.flushed_lsn then resume ()
        else w.lsn_waiters <- (lsn, resume) :: w.lsn_waiters)
  end;
  if needs_remote then begin
    Obs.Counter.incr t.n_remote_waits;
    if durable_floor t < remote_gsn then begin
      (* nudge the writers still holding back the floor *)
      Array.iter (fun w' -> if oldest_unflushed_gsn w' <= remote_gsn then flush t w') t.writers;
      wal_wait (fun resume ->
          if durable_floor t >= remote_gsn then resume ()
          else t.remote_waiters <- (remote_gsn, resume) :: t.remote_waiters)
    end
  end
  else Obs.Counter.incr t.n_local_commits

let flush_all t ~on_done =
  Array.iter (fun w -> flush t w) t.writers;
  let rec check () =
    let pending = Array.exists (fun w -> w.inflight || Buffer.length w.buf > 0) t.writers in
    if pending then Engine.schedule t.engine ~delay:10_000 (fun () ->
        Array.iter (fun w -> flush t w) t.writers;
        check ())
    else on_done ()
  in
  check ()

let total_records t = Obs.Counter.get t.records
let total_bytes t = Obs.Counter.get t.bytes
let total_durable_bytes t = Obs.Counter.get t.bytes_durable
let remote_waits t = Obs.Counter.get t.n_remote_waits
let local_commits t = Obs.Counter.get t.n_local_commits
let store t = t.wstore
