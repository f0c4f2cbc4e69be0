module Engine = Phoebe_sim.Engine
module Scheduler = Phoebe_runtime.Scheduler
module Obs = Phoebe_obs.Obs
module Trace = Phoebe_obs.Trace
module Config = Phoebe_core.Config
module Db = Phoebe_core.Db
module Table = Phoebe_core.Table
module Txnmgr = Phoebe_txn.Txnmgr
module Value = Phoebe_storage.Value
module Wal = Phoebe_wal.Wal
module Recovery = Phoebe_wal.Recovery
module Device = Phoebe_io.Device

type proc = shard:int -> Db.t -> Table.txn -> Value.t array -> Value.t array

let reason_code = function
  | Txnmgr.Deadlock -> 0
  | Txnmgr.Deadline -> 1
  | Txnmgr.Shed -> 2
  | Txnmgr.Conflict -> 3
  | Txnmgr.User -> 4

let reason_of_code = function
  | 0 -> Txnmgr.Deadlock
  | 1 -> Txnmgr.Deadline
  | 2 -> Txnmgr.Shed
  | 3 -> Txnmgr.Conflict
  | _ -> Txnmgr.User

(* Participant-side command a delivered message turns into; the branch
   fiber consumes them one at a time. *)
type cmd =
  | CExec of int * Value.t array
  | CPrepare
  | CCommit
  | CAbort

type branch = {
  br_gxid : int;
  br_coord : int;
  mutable br_cmd : cmd option;
  mutable br_waiter : Scheduler.waiter option;
  mutable br_prepared : bool;
}

(* Coordinator-side decision log, consulted by Status_req. An entry is
   [Deciding] from the moment the first participant is enlisted until
   the decision is *durable* — for commit that means the coordinator's
   own commit record finished its durability wait; for abort, the
   moment the coordinator gave up (presumed abort needs no durability).
   Status queries get no answer while [Deciding]; the in-doubt branch
   simply polls again. *)
type decision = Deciding | Dcommit | Dabort

type dtxn = {
  dt_home : int;
  dt_gxid : int;
  dt_txn : Table.txn;
  mutable dt_parts : int list;
  mutable dt_reply : (Value.t array, int) result option;
  mutable dt_votes_pending : int;
  mutable dt_vote_failed : bool;
  mutable dt_waiter : Scheduler.waiter option;
  mutable dt_ok : bool;
}

type t = {
  ceng : Engine.t;
  cobs : Obs.t;
  cnet : Net.t;
  cnet_cfg : Net.config;
  cshards : Db.t array;
  shard_cfg : Config.t;
  decision_poll_ns : int;
  mutable procs : proc array;
  branches : (int * int, branch) Hashtbl.t array;
      (* keyed by (coordinator shard, gxid): a gxid is the coordinator's
         local xid, and the per-shard xid sequences collide across
         shards — two coordinators can issue the same gxid, and a
         participant serving both must keep their branches apart *)
  coords : (int, dtxn) Hashtbl.t array;
  decisions : (int, decision) Hashtbl.t array;
  mutable drop_decides : bool;  (** fault hook: decisions are never sent *)
  mutable hold_before_decide : bool;  (** crash-test hook, see [prepare_phase] *)
  c_started : Obs.Counter.t;
  c_committed : Obs.Counter.t;
  c_aborted : Obs.Counter.t;
  c_prepare_timeouts : Obs.Counter.t;
  c_exec_timeouts : Obs.Counter.t;
  c_br_prepared : Obs.Counter.t;
  c_br_committed : Obs.Counter.t;
  c_br_aborted : Obs.Counter.t;
  c_status_polls : Obs.Counter.t;
}

(* The bound on exec-reply and prepare-vote waits. No caller varies it. *)
let msg_timeout_ns = 10_000_000

let shards t = Array.length t.cshards
let shard t k = t.cshards.(k)
let engine t = t.ceng
let obs t = t.cobs
let net t = t.cnet

let register_proc t f =
  let id = Array.length t.procs in
  t.procs <- Array.append t.procs [| f |];
  id

let run_proc t ~shard db txn ~proc args =
  if proc < 0 || proc >= Array.length t.procs then
    Phoebe_util.Phoebe_error.bug ~subsystem:"shard.cluster" "unknown proc id %d" proc;
  (t.procs.(proc)) ~shard db txn args

let wake w = match w with Some w -> ignore (Scheduler.wake_waiter w Scheduler.Signalled) | None -> ()

(* ------------------------------------------------------------------ *)
(* Participant side *)

let reply t (m : Msg.t) payload = Net.send t.cnet { Msg.gxid = m.Msg.gxid; src = m.Msg.dst; dst = m.Msg.src; payload }

(* Branch [br]'s message to its coordinator. *)
let to_coord t p br payload = Net.send t.cnet { Msg.gxid = br.br_gxid; src = p; dst = br.br_coord; payload }

(* The branch is done: it leaves the participant's table. *)
let forget t p br = Hashtbl.remove t.branches.(p) (br.br_coord, br.br_gxid)

(* The branch fiber after a successful Exec: consume protocol commands
   until the decision, parking (with a poll deadline) in between. The
   poll is what makes the protocol live under message loss: a dropped
   Prepare or Decide_* shows up as silence, and the branch asks the
   coordinator for the durable decision with Status_req. The fiber
   holds its task slot (and the transaction its locks) the whole time —
   prepared state is not free, which is exactly the back-pressure
   two-phase commit is supposed to exert. *)
let rec branch_loop t p br txn =
  let db = t.cshards.(p) in
  match br.br_cmd with
  | Some cmd -> begin
    br.br_cmd <- None;
    match cmd with
    | CExec (proc, args) -> exec_step t p br txn ~proc args
    | CPrepare ->
      Txnmgr.prepare (Db.txnmgr db) txn ~gxid:br.br_gxid ~coord:br.br_coord;
      br.br_prepared <- true;
      Obs.Counter.incr t.c_br_prepared;
      to_coord t p br Msg.Vote_yes;
      branch_loop t p br txn
    | CCommit ->
      Txnmgr.commit (Db.txnmgr db) txn;
      forget t p br;
      Obs.Counter.incr t.c_br_committed;
      Db.after_commit_housekeeping db
    | CAbort ->
      Db.abort_txn db txn;
      forget t p br;
      Obs.Counter.incr t.c_br_aborted
  end
  | None ->
    let deadline = Scheduler.At (Engine.now t.ceng + t.decision_poll_ns) in
    let r =
      Scheduler.park ~deadline ~urgency:Scheduler.Low ~phase:Trace.Remote_wait (fun w ->
          br.br_waiter <- Some w)
    in
    br.br_waiter <- None;
    (match r with
    | Scheduler.Timed_out ->
      Obs.Counter.incr t.c_status_polls;
      to_coord t p br Msg.Status_req
    | Scheduler.Signalled -> ());
    branch_loop t p br txn

(* One Exec on the branch: reply with its results and consume the next
   command, or abort the branch and report why. *)
and exec_step t p br txn ~proc args =
  let db = t.cshards.(p) in
  match run_proc t ~shard:p db txn ~proc args with
  | results ->
    to_coord t p br (Msg.Exec_ok { results });
    branch_loop t p br txn
  | exception Txnmgr.Abort (reason, _) ->
    Db.abort_txn db txn;
    forget t p br;
    Obs.Counter.incr t.c_br_aborted;
    to_coord t p br (Msg.Exec_failed { reason = reason_code reason })

let start_branch t p (m : Msg.t) ~proc ~args =
  let br =
    { br_gxid = m.Msg.gxid; br_coord = m.Msg.src; br_cmd = None; br_waiter = None; br_prepared = false }
  in
  Hashtbl.replace t.branches.(p) (m.Msg.src, m.Msg.gxid) br;
  let db = t.cshards.(p) in
  (* a plain scheduler task, not [Db.submit]: the admission decision was
     made at the coordinator's front door, and a refused branch would
     wedge an already-admitted global transaction *)
  Scheduler.submit (Db.scheduler db) (fun () -> exec_step t p br (Db.begin_txn db) ~proc args)

(* Hand the command [m] carries to the branch it names and wake its
   fiber. With no such branch, an Exec starts one, and a Prepare votes
   no: the branch is gone (it aborted, or never existed because the Exec
   was lost), so it cannot possibly commit. A decision for no branch is
   a duplicate. *)
let to_branch t p (m : Msg.t) =
  (* [Some CPrepare] and the like are constants: passing the option
     allocates nothing for them *)
  let command br cmd =
    br.br_cmd <- cmd;
    wake br.br_waiter
  in
  match (Hashtbl.find_opt t.branches.(p) (m.Msg.src, m.Msg.gxid), m.Msg.payload) with
  | Some br, Msg.Exec { proc; args } -> command br (Some (CExec (proc, args)))
  | Some br, Msg.Prepare -> command br (Some CPrepare)
  | Some br, Msg.Decide_commit -> command br (Some CCommit)
  | Some br, Msg.Decide_abort -> command br (Some CAbort)
  | None, Msg.Exec { proc; args } -> start_branch t p m ~proc ~args
  | None, Msg.Prepare -> reply t m Msg.Vote_no
  | None, (Msg.Decide_commit | Msg.Decide_abort) -> ()
  | _, (Msg.Exec_ok _ | Msg.Exec_failed _ | Msg.Vote_yes | Msg.Vote_no | Msg.Status_req) -> ()

(* ------------------------------------------------------------------ *)
(* Coordinator side *)

let wake_coord dtx = wake dtx.dt_waiter

let park_coord t dtx =
  let deadline = Scheduler.At (Engine.now t.ceng + msg_timeout_ns) in
  let r =
    Scheduler.park ~deadline ~urgency:Scheduler.High ~phase:Trace.Remote_wait (fun w ->
        dtx.dt_waiter <- Some w)
  in
  dtx.dt_waiter <- None;
  r

let send_decision t dtx payload =
  List.iter
    (fun p -> Net.send t.cnet { Msg.gxid = dtx.dt_gxid; src = dtx.dt_home; dst = p; payload })
    dtx.dt_parts

(* Coordinator-side abort of a global transaction: record the (presumed)
   abort decision, then release the branches. Runs before the exception
   reaches [with_txn], so a retried attempt starts from a clean slate
   (the retry is a fresh local txn and therefore a fresh gxid). *)
let coordinator_abort t dtx =
  if dtx.dt_parts <> [] then begin
    Hashtbl.replace t.decisions.(dtx.dt_home) dtx.dt_gxid Dabort;
    Hashtbl.remove t.coords.(dtx.dt_home) dtx.dt_gxid;
    if not t.drop_decides then send_decision t dtx Msg.Decide_abort;
    Obs.Counter.incr t.c_aborted
  end

let enlist t dtx p =
  if not (List.mem p dtx.dt_parts) then begin
    if dtx.dt_parts = [] then begin
      Hashtbl.replace t.coords.(dtx.dt_home) dtx.dt_gxid dtx;
      Hashtbl.replace t.decisions.(dtx.dt_home) dtx.dt_gxid Deciding;
      Obs.Counter.incr t.c_started
    end;
    dtx.dt_parts <- p :: dtx.dt_parts
  end

let remote_exec t dtx ~shard:p ~proc ~args =
  if p < 0 || p >= Array.length t.cshards then invalid_arg "Cluster.remote_exec: bad shard id";
  if p = dtx.dt_home then run_proc t ~shard:p t.cshards.(p) dtx.dt_txn ~proc args
  else begin
    enlist t dtx p;
    dtx.dt_reply <- None;
    Net.send t.cnet
      { Msg.gxid = dtx.dt_gxid; src = dtx.dt_home; dst = p; payload = Msg.Exec { proc; args } };
    let r = park_coord t dtx in
    match (r, dtx.dt_reply) with
    | Scheduler.Signalled, Some (Ok results) -> results
    | Scheduler.Signalled, Some (Error code) ->
      raise (Txnmgr.Abort (reason_of_code code, "remote statement aborted on its shard"))
    | _ ->
      Obs.Counter.incr t.c_exec_timeouts;
      raise (Txnmgr.Abort (Txnmgr.Deadline, "remote statement timed out"))
  end

(* Phase one: Prepare to every enlisted participant, wait for the
   votes. Timeout or any no-vote aborts the global transaction — the
   coordinator-side abort rule — and the distributed wait doubles as
   the cross-shard deadlock breaker (per-shard wait-for graphs cannot
   see a cycle that closes over the network; its symptom is a branch
   that never finishes executing, which surfaces here as silence). *)
let prepare_phase t dtx =
  dtx.dt_votes_pending <- List.length dtx.dt_parts;
  dtx.dt_vote_failed <- false;
  send_decision t dtx Msg.Prepare;
  let r = park_coord t dtx in
  if r <> Scheduler.Signalled || dtx.dt_vote_failed || dtx.dt_votes_pending > 0 then begin
    if r = Scheduler.Timed_out then Obs.Counter.incr t.c_prepare_timeouts;
    let reason = if dtx.dt_vote_failed then Txnmgr.Conflict else Txnmgr.Deadline in
    raise (Txnmgr.Abort (reason, "two-phase commit prepare failed"))
  end;
  if t.hold_before_decide then
    (* crash-test hook: every vote is in, the decision is not yet
       logged — freeze here until the cluster is crashed *)
    ignore
      (Scheduler.park ~deadline:Scheduler.Never ~urgency:Scheduler.Low ~phase:Trace.Remote_wait
         (fun w -> dtx.dt_waiter <- Some w))

let submit_dtxn ?affinity ?(on_done = fun ~committed:_ -> ()) t ~home body =
  if home < 0 || home >= Array.length t.cshards then invalid_arg "Cluster.submit_dtxn: bad shard id";
  let db = t.cshards.(home) in
  let cell = ref None in
  Db.submit ?affinity db
    ~on_done:(fun () ->
      (match !cell with
      | Some dtx when dtx.dt_ok && dtx.dt_parts <> [] ->
        (* [with_txn] returned: the coordinator's commit record is
           durable, which *is* the global commit point. Publish it and
           release the branches. *)
        Hashtbl.replace t.decisions.(dtx.dt_home) dtx.dt_gxid Dcommit;
        Hashtbl.remove t.coords.(dtx.dt_home) dtx.dt_gxid;
        if not t.drop_decides then send_decision t dtx Msg.Decide_commit;
        Obs.Counter.incr t.c_committed
      | _ -> ());
      let committed = match !cell with Some dtx -> dtx.dt_ok | None -> false in
      on_done ~committed)
    (fun txn ->
      let dtx =
        {
          dt_home = home;
          dt_gxid = txn.Txnmgr.xid;
          dt_txn = txn;
          dt_parts = [];
          dt_reply = None;
          dt_votes_pending = 0;
          dt_vote_failed = false;
          dt_waiter = None;
          dt_ok = false;
        }
      in
      cell := Some dtx;
      (try
         body dtx;
         if dtx.dt_parts <> [] then prepare_phase t dtx
       with e ->
         coordinator_abort t dtx;
         raise e);
      dtx.dt_ok <- true)

let submit_local ?affinity ?on_done t ~shard:k body =
  if k < 0 || k >= Array.length t.cshards then invalid_arg "Cluster.submit_local: bad shard id";
  Db.submit ?affinity ?on_done t.cshards.(k) body

let dtxn_txn dtx = dtx.dt_txn

(* ------------------------------------------------------------------ *)
(* Message dispatch *)

(* An Exec reply or a prepare vote for the global transaction [m]
   names; once it stopped deciding, a late one is dropped. *)
let to_dtxn t k (m : Msg.t) =
  match Hashtbl.find_opt t.coords.(k) m.Msg.gxid with
  | None -> ()
  | Some dtx -> (
    match m.Msg.payload with
    | Msg.Exec_ok { results } ->
      dtx.dt_reply <- Some (Ok results);
      wake_coord dtx
    | Msg.Exec_failed { reason } ->
      dtx.dt_reply <- Some (Error reason);
      wake_coord dtx
    | Msg.Vote_yes ->
      dtx.dt_votes_pending <- dtx.dt_votes_pending - 1;
      if dtx.dt_votes_pending = 0 then wake_coord dtx
    | Msg.Vote_no ->
      dtx.dt_vote_failed <- true;
      wake_coord dtx
    | Msg.Exec _ | Msg.Prepare | Msg.Decide_commit | Msg.Decide_abort | Msg.Status_req -> ())

let handle t k (m : Msg.t) =
  match m.Msg.payload with
  | Msg.Exec _ | Msg.Prepare | Msg.Decide_commit | Msg.Decide_abort -> to_branch t k m
  | Msg.Status_req -> begin
    match Hashtbl.find_opt t.decisions.(k) m.Msg.gxid with
    | Some Dcommit -> reply t m Msg.Decide_commit
    | Some Dabort -> reply t m Msg.Decide_abort
    | None ->
      (* unknown gxid: presumed abort *)
      reply t m Msg.Decide_abort
    | Some Deciding -> ()
  end
  | Msg.Exec_ok _ | Msg.Exec_failed _ | Msg.Vote_yes | Msg.Vote_no -> to_dtxn t k m

(* ------------------------------------------------------------------ *)
(* Construction, stats, crash/recovery *)

let shard_config base k =
  match base.Config.faults with
  | None -> base
  | Some fc ->
    (* each shard's three devices get their own fault streams *)
    { base with Config.faults = Some { fc with Device.fault_seed = fc.Device.fault_seed + (16 * k) } }

let build ~eng ~net_cfg ~decision_poll_ns ~shard_cfg shards_arr =
  let n = Array.length shards_arr in
  let cobs = Obs.create () in
  let cnet = Net.create ~obs:cobs eng ~nodes:n net_cfg in
  let t =
    {
      ceng = eng;
      cobs;
      cnet;
      cnet_cfg = net_cfg;
      cshards = shards_arr;
      shard_cfg;
      decision_poll_ns;
      procs = [||];
      branches = Array.init n (fun _ -> Hashtbl.create 64);
      coords = Array.init n (fun _ -> Hashtbl.create 64);
      decisions = Array.init n (fun _ -> Hashtbl.create 256);
      drop_decides = false;
      hold_before_decide = false;
      c_started = Obs.counter cobs "twopc.started";
      c_committed = Obs.counter cobs "twopc.committed";
      c_aborted = Obs.counter cobs "twopc.aborted";
      c_prepare_timeouts = Obs.counter cobs "twopc.prepare_timeouts";
      c_exec_timeouts = Obs.counter cobs "twopc.exec_timeouts";
      c_br_prepared = Obs.counter cobs "twopc.branch.prepared";
      c_br_committed = Obs.counter cobs "twopc.branch.committed";
      c_br_aborted = Obs.counter cobs "twopc.branch.aborted";
      c_status_polls = Obs.counter cobs "twopc.status_polls";
    }
  in
  for k = 0 to n - 1 do
    Net.set_handler cnet ~node:k (handle t k)
  done;
  t

let create ?(net = Net.default_config) ?(decision_poll_ns = 5_000_000) eng ~shards:n cfg =
  if n <= 0 then invalid_arg "Cluster.create: shards must be positive";
  let shards_arr = Array.init n (fun k -> Db.create_on eng (shard_config cfg k)) in
  build ~eng ~net_cfg:net ~decision_poll_ns ~shard_cfg:cfg shards_arr

let run t = Scheduler.run_until_quiescent (Db.scheduler t.cshards.(0))
let run_for t ~ns = Engine.run_until t.ceng ~time:(Engine.now t.ceng + ns)

type stats = {
  started : int;
  committed : int;
  aborted : int;
  prepare_timeouts : int;
  exec_timeouts : int;
  branches_prepared : int;
  branches_committed : int;
  branches_aborted : int;
  status_polls : int;
  net_msgs : int;
  net_bytes : int;
  net_dropped : int;
}

let stats t =
  {
    started = Obs.Counter.get t.c_started;
    committed = Obs.Counter.get t.c_committed;
    aborted = Obs.Counter.get t.c_aborted;
    prepare_timeouts = Obs.Counter.get t.c_prepare_timeouts;
    exec_timeouts = Obs.Counter.get t.c_exec_timeouts;
    branches_prepared = Obs.Counter.get t.c_br_prepared;
    branches_committed = Obs.Counter.get t.c_br_committed;
    branches_aborted = Obs.Counter.get t.c_br_aborted;
    status_polls = Obs.Counter.get t.c_status_polls;
    net_msgs = Net.msgs t.cnet;
    net_bytes = Net.bytes t.cnet;
    net_dropped = Net.dropped t.cnet;
  }

(* Per-shard registries flattened under a "shard.<k>." prefix, the
   cluster's own registry (twopc / net metrics) as-is, plus cross-shard
   rollups. *)
let registry_json t =
  let n = Array.length t.cshards in
  let rollup f = Array.fold_left (fun acc db -> acc + f (Db.stats db)) 0 t.cshards in
  let per_shard =
    List.concat
      (List.init n (fun k ->
           Obs.to_json_prefixed (Db.obs t.cshards.(k)) ~prefix:(Printf.sprintf "shard.%d." k)))
  in
  Obs.to_json_prefixed t.cobs ~prefix:""
  @ [
      ("cluster.committed", Phoebe_util.Json.Int (rollup (fun s -> s.Db.committed)));
      ("cluster.aborted", Phoebe_util.Json.Int (rollup (fun s -> s.Db.aborted)));
      ("cluster.sheds", Phoebe_util.Json.Int (rollup (fun s -> s.Db.sheds)));
      ("cluster.shards", Phoebe_util.Json.Int n);
    ]
  @ per_shard

let set_drop_decides t v = t.drop_decides <- v
let set_hold_before_decide t v = t.hold_before_decide <- v
let set_partitioned t ~shard:k v = Net.set_partitioned t.cnet ~node:k v

let crash ?tear t = Array.map (fun db -> Db.crash ?tear db) t.cshards

type recovery_report = {
  shard_reports : Recovery.report array;
  in_doubt_txns : int;
  in_doubt_committed : int;
  in_doubt_aborted : int;
  in_doubt_ops_applied : int;
}

(* Restart every shard after a whole-cluster power loss: fresh volatile
   state on the surviving stores, caller-supplied DDL (tables must be
   recreated in their original order so WAL table ids line up), redo
   replay, then cross-shard in-doubt resolution — a branch whose
   Prepare survived but whose decision didn't is committed iff the
   coordinator's log holds a Commit for its gxid (the gxid *is* the
   coordinator's local xid), presumed aborted otherwise. *)
let recover ?(net : Net.config option) old ~ddl =
  let n = Array.length old.cshards in
  let shards' = Array.map (fun db -> Db.create_attached db old.shard_cfg) old.cshards in
  Array.iteri (fun k db -> ddl k db) shards';
  (* (xid → ()) per coordinator shard, built lazily from its durable log
     — readable before any replay, so resolution order cannot matter *)
  let committed_cache = Array.make n None in
  let coordinator_committed coord gxid =
    let tbl =
      match committed_cache.(coord) with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 256 in
        List.iter
          (fun (xid, _cts) -> Hashtbl.replace tbl xid ())
          (Recovery.committed_transactions (Wal.store (Db.wal old.cshards.(coord))));
        committed_cache.(coord) <- Some tbl;
        tbl
    in
    Hashtbl.mem tbl gxid
  in
  let in_doubt_txns = ref 0 in
  let committed = ref 0 in
  let aborted = ref 0 in
  let applied = ref 0 in
  let decide (d : Recovery.in_doubt) =
    incr in_doubt_txns;
    if d.Recovery.coord >= 0 && d.Recovery.coord < n
       && coordinator_committed d.Recovery.coord d.Recovery.gxid
    then begin
      incr committed;
      applied := !applied + List.length d.Recovery.ops;
      true
    end
    else begin
      incr aborted;
      false
    end
  in
  let reports =
    Array.mapi
      (fun k db -> Db.replay_wal db ~decide_in_doubt:decide ~from:(Wal.store (Db.wal old.cshards.(k))))
      shards'
  in
  let t' =
    build ~eng:old.ceng
      ~net_cfg:(Option.value net ~default:old.cnet_cfg)
      ~decision_poll_ns:old.decision_poll_ns
      ~shard_cfg:old.shard_cfg shards'
  in
  ( t',
    {
      shard_reports = reports;
      in_doubt_txns = !in_doubt_txns;
      in_doubt_committed = !committed;
      in_doubt_aborted = !aborted;
      in_doubt_ops_applied = !applied;
    } )
