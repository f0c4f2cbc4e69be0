module Db = Phoebe_core.Db
module Config = Phoebe_core.Config
module Table = Phoebe_core.Table
module Engine = Phoebe_sim.Engine
module Netchan = Phoebe_sim.Netchan
module Scheduler = Phoebe_runtime.Scheduler
module Wal = Phoebe_wal.Wal
module Record = Phoebe_wal.Record
module Recovery = Phoebe_wal.Recovery
module Walstore = Phoebe_io.Walstore
module Device = Phoebe_io.Device
module Txnmgr = Phoebe_txn.Txnmgr
module Obs = Phoebe_obs.Obs
module Trace = Phoebe_obs.Trace
module Prng = Phoebe_util.Prng
module Error = Phoebe_util.Phoebe_error
module Sanitize = Phoebe_sanitize.Sanitize

type config = { replicas : int; latency_ns : int; drop_p : float; net_seed : int }

let default_config = { replicas = 2; latency_ns = 50_000; drop_p = 0.0; net_seed = 11 }

(* Protocol constants. No caller varies them. *)
let gbps = 10.0 (* per-link fabric bandwidth *)
let poll_interval_ns = 200_000 (* primary pull/ship/heartbeat tick *)
let election_timeout_ns = 10_000_000 (* base primary-silence timeout *)
let retransmit_timeout_ns = 1_000_000 (* go-back-N's first rewind after no ack progress *)
let staleness_bound_ns = 5_000_000 (* default follower-read bound *)

exception Stale_read of { node : int; staleness_ns : int; bound_ns : int }

(* ------------------------------------------------------------------ *)
(* The replication stream.

   The primary serialises its durable WAL into one totally ordered byte
   stream of chunks. Each chunk carries a maximal run of same-WAL-file
   records out of one "pull" (one durable-frontier sweep), with the
   records of a pull merged across files by GSN — the same cross-slot
   order crash recovery replays in. The last chunk of every pull is a
   BARRIER: commit records' dependency closures never straddle a pull
   (a commit is only pulled once it is durable, and WAL ordering makes
   its writes durable before it), so a stream prefix ending at a
   barrier is transactionally meaningful — replicas apply at barriers,
   quorum-ack targets land on barriers, and promotion truncates to the
   last durable barrier. Every copy of the stream shares chunk
   boundaries, so a chunk count is a replica state's single-integer
   summary: every frontier (received, durable, safe, applied, sent,
   acknowledged, a commit's target) is one, and the election compares
   durable counts that end in the same view. Byte offsets are derived
   from the chunk table only where bytes are reported. *)

(* WAL file ids are reused across views (they are writer slots); the
   stream namespaces them per view so catch-up replay can process each
   primary generation separately, in order. *)
let view_stride = 1 lsl 16

let stream_file ~view ~file = (view * view_stride) + file
let view_of_file f = f / view_stride

(* Immutable once cut: every copy of the stream shares the values. *)
type chunk = {
  c_file : int;  (** view-namespaced WAL file id *)
  c_bytes : Bytes.t;
  c_start : int;  (** cumulative stream offset of the first byte *)
  c_as_of : int;  (** primary virtual time when the pull was cut *)
  c_barrier : bool;  (** last chunk of its pull: a safe cut point *)
}

type role = Primary | Follower | Candidate | Down

(* A quorum commit wait. The committing transaction's records all carry
   GSN <= [w_gsn]; they are guaranteed to be in the stream only once
   the WAL's durable-GSN floor passes [w_gsn] (pulls clamp to the
   floor), at which point the pull resolves the wait to a concrete
   target chunk count. The fiber resumes when a majority is durable up
   to that target. *)
type waiter = {
  w_gsn : int;
  mutable w_target : int option;
  w_resume : unit -> unit;
}

type node = {
  id : int;
  mutable db : Db.t;
  mirror : Walstore.t;  (** replica-side durable copy of the stream *)
  mutable gen : int;  (** bumped on restart/truncation: voids stale closures *)
  (* stream replica state: each frontier is a chunk count *)
  mutable chunks : chunk array;
  mutable on_media : bool array;  (** chunk idx -> its mirror append is durable *)
  mutable n_chunks : int;  (** contiguously received *)
  mutable durable_chunks : int;  (** contiguously durable *)
  mutable safe_chunks : int;  (** up to the last durable pull barrier *)
  mutable applied_chunks : int;
  mutable applied_as_of : int;  (** primary time the applied state reflects *)
  mutable view_base : int;  (** a primary's count when it entered its view *)
  mutable runs : Recovery.runs;  (** per stream file: undecided record runs *)
  mutable parked : (int * Record.t) list;  (** committed ops missing their base row *)
  (* role / view *)
  mutable role : role;
  mutable view : int;  (** the view entered: the one this node follows or leads *)
  mutable voted_view : int;
      (** highest view proposed, granted or refused: it votes in none at or below *)
  mutable granted_view : int;
      (** highest view granted to another candidate; see [fenced] *)
  mutable votes : int;
  mutable leader : int;
  mutable deadline : int;  (** when a follower or candidate (re)starts an election *)
  rng : Prng.t;  (** per-node deterministic election jitter *)
  (* primary-side shipping state, indexed by peer id *)
  pulled : (int, int) Hashtbl.t;  (** per local WAL file: bytes pulled *)
  sent_chunk : int array;
  recv_chunk : int array;  (** received, as of the peer's last ack: go-back-N's rewind point *)
  acked_chunk : int array;  (** durable, as of the peer's last ack: its quorum vote *)
  ack_progress_at : int array;  (** when the received count last moved, or an idle peer was shipped *)
  rewind_after : int array;
      (** silence before the next rewind: doubled by each rewind, reset by each ack *)
  mutable waiters : waiter list;  (** quorum commit waits *)
}

type t = {
  eng : Engine.t;
  dbcfg : Config.t;
  ddl : Db.t -> unit;
  decide : Recovery.in_doubt -> bool;
  obs : Obs.t;
  chan : Netchan.t;
  mutable nodes : node array;
  n : int;
  majority : int;
  mutable stopped : bool;
  mutable promotions : (int * int) list;  (** checker record: (view, node) per promotion *)
  mutable releases : Quorum_check.release list;
      (** checker record: one per view that released, the highest view first *)
  c_ships : Obs.Counter.t;
  c_acks : Obs.Counter.t;
  c_retransmits : Obs.Counter.t;
  c_elections : Obs.Counter.t;
  c_view_changes : Obs.Counter.t;
  c_quorum_waits : Obs.Counter.t;
  c_follower_reads : Obs.Counter.t;
  c_stale_reads : Obs.Counter.t;
  c_rebuilds : Obs.Counter.t;
}

type msg =
  | Ship of {
      src : int;
      view : int;
      base : int;
      prev_view : int;  (** the view of the primary's chunk before the first shipped *)
      chunks : chunk list;
      stream_chunks : int;
      sent_at : int;
    }
  | Ack of { view : int; src : int; received : int; durable : int; last_view : int; off : int }
  | Vote_req of { view : int; cand : int; last_view : int; durable : int }
  | Vote_grant of { view : int; src : int }
  | New_view of { view : int; primary : int; base : int }

let msg_bytes = function
  | Ship { chunks; _ } -> List.fold_left (fun a c -> a + 32 + Bytes.length c.c_bytes) 64 chunks
  | Ack _ | Vote_req _ | Vote_grant _ | New_view _ -> 64

(* ------------------------------------------------------------------ *)
(* Stream bookkeeping helpers *)

(* A node is fenced while it follows a view below one it granted to
   another candidate. The grant told that candidate this node's durable
   prefix was no longer than the one compared, so an ack to the old
   primary past it could complete a commit the candidate lacks: a fenced
   node takes the old view's chunks but acks none, and campaigns until a
   view at least as high forms. A candidate's own proposal fences
   nothing, so a node that campaigned alone behind a partition rejoins
   its view once healed. *)
let fenced nd = nd.view < nd.granted_view

(* Failure detection is staggered deterministically by node id so one
   follower times out first and elections rarely split. *)
let follower_timeout id = election_timeout_ns + (id * election_timeout_ns / 4)

let push_chunk nd c =
  if nd.n_chunks = Array.length nd.chunks then begin
    let cap = max 64 (2 * Array.length nd.chunks) in
    let bigger = Array.make cap c and flags = Array.make cap false in
    Array.blit nd.chunks 0 bigger 0 nd.n_chunks;
    Array.blit nd.on_media 0 flags 0 nd.n_chunks;
    nd.chunks <- bigger;
    nd.on_media <- flags
  end;
  nd.chunks.(nd.n_chunks) <- c;
  nd.n_chunks <- nd.n_chunks + 1

(* Stream bytes in the first [k] chunks: the byte offset of frontier
   [k], for reporting and for placing a chunk in the byte stream. *)
let off_of nd k =
  if k = 0 then 0
  else begin
    let c = nd.chunks.(k - 1) in
    c.c_start + Bytes.length c.c_bytes
  end

(* The view whose primary cut the last of the first [k] chunks (0 for
   none): copies of one history agree on it at every count. *)
let view_at nd k = if k = 0 then 0 else view_of_file nd.chunks.(k - 1).c_file

(* Cut the stream back to its first [keep] chunks, and to its durable
   prefix: bumping [gen] voids every in-flight mirror-durability
   closure, so a chunk not yet durable would never become so, and the
   go-back-N re-ship that could replace it would be refused as a
   duplicate. *)
let cut nd ~keep =
  let keep = min keep nd.durable_chunks in
  nd.gen <- nd.gen + 1;
  Array.fill nd.on_media keep (nd.n_chunks - keep) false;
  nd.n_chunks <- keep;
  nd.durable_chunks <- keep;
  nd.safe_chunks <- min nd.safe_chunks keep

(* k-th largest durable chunk count across the group, counting the
   primary's own durable prefix: the quorum-acknowledged frontier. *)
let quorum_chunks t p =
  let counts = Array.init t.n (fun j -> if j = p.id then p.durable_chunks else p.acked_chunk.(j)) in
  Array.sort (fun a b -> Int.compare b a) counts;
  counts.(t.majority - 1)

(* A commit wait's target: once the WAL's durable-GSN floor passes the
   commit's GSN, every record of it is in the stream (pulls clamp to the
   floor), so the quorum must reach the stream's current end. *)
let commit_target nd ~floor ~gsn = if (gsn : int) <= floor then Some nd.n_chunks else None

(* Checker record: view [p.view] released a commit wait at [target].
   Records are kept highest view first, so a release in the current view
   meets its view's record at the head. *)
let rec mark_release p ~target = function
  | (r : Quorum_check.release) :: rest as rs when r.r_view = p.view ->
    if target <= r.r_count then rs else mark_release p ~target rest
  | r :: rest when r.r_view > p.view -> r :: mark_release p ~target rest
  | rs ->
    { r_view = p.view; r_count = target; r_chunk_view = view_at p target; r_end = off_of p target }
    :: rs

let note_release t p ~target = t.releases <- mark_release p ~target t.releases

(* Park a committing fiber until [register]'s waker runs, if ever. *)
let park_commit register =
  if Scheduler.in_fiber () then
    ignore
      (Scheduler.park ~deadline:Scheduler.Never ~urgency:Scheduler.High ~phase:Trace.Quorum_wait
         register)

let wake_commit_waiters t p =
  match p.waiters with
  | [] -> ()
  | waiters ->
    let q = quorum_chunks t p in
    let ready, rest =
      List.partition
        (fun w -> match w.w_target with Some target -> target <= q | None -> false)
        waiters
    in
    p.waiters <- rest;
    List.iter
      (fun w ->
        Option.iter (fun target -> note_release t p ~target) w.w_target;
        w.w_resume ())
      ready

let advance_durable nd =
  let from = nd.durable_chunks in
  while nd.durable_chunks < nd.n_chunks && nd.on_media.(nd.durable_chunks) do
    if nd.chunks.(nd.durable_chunks).c_barrier then nd.safe_chunks <- nd.durable_chunks + 1;
    nd.durable_chunks <- nd.durable_chunks + 1
  done;
  nd.durable_chunks > from

(* The checker's view of the group (Quorum_check) *)
let snapshot t : Quorum_check.snapshot =
  let entry c : Quorum_check.entry =
    { e_view = view_of_file c.c_file; e_start = c.c_start; e_len = Bytes.length c.c_bytes }
  in
  let state nd : Quorum_check.node_state =
    {
      s_id = nd.id;
      s_leads = (match nd.role with Primary -> Some nd.view | Follower | Candidate | Down -> None);
      s_chunks = Array.init nd.n_chunks (fun i -> entry nd.chunks.(i));
      s_durable = nd.durable_chunks;
      s_safe = nd.safe_chunks;
      s_applied = nd.applied_chunks;
    }
  in
  { members = Array.map state t.nodes; leaders = t.promotions; releases = List.rev t.releases }

(* ------------------------------------------------------------------ *)
(* Replica-side apply: crash recovery's run machine and apply order, fed
   chunk by chunk. Replicas preserve the primary's row-id space (the
   raw, rid-keyed apply crash recovery uses), so after promotion the
   stream and the database agree on rids — no translation map to lose at
   failover. *)

let fresh_runs () = Recovery.runs ~lead:view_of_file ()

(* An update or delete whose base row has not arrived parks until a
   later batch brings it; promotion refuses to serve while any is
   parked. *)
let base_missing db (r : Record.t) =
  match r.Record.op with
  | Record.Update { table; rid; _ } | Record.Delete { table; rid } ->
    not (Table.raw_exists (Db.table_by_id db table) ~rid)
  | Record.Insert _ | Record.Commit _ | Record.Abort _ | Record.Prepare _ -> false

let rec consume_chunk nd c off =
  if off < Bytes.length c.c_bytes then
    match Record.decode c.c_bytes off with
    | r, off' ->
      Recovery.feed nd.runs ~file:c.c_file r;
      consume_chunk nd c off'
    | exception Failure msg ->
      Error.bug ~subsystem:"replication.quorum" "corrupt stream chunk on node %d: %s" nd.id msg

(* Consume chunks [applied_chunks, upto) and apply their committed
   transactions — at promotion also the in-doubt branches [decide]
   commits — in one recovery-ordered batch with the parked ops. Callers
   cut only at pull barriers, so the batch is transactionally closed. *)
let apply_upto ?decide nd ~upto =
  if nd.applied_chunks < upto || Option.is_some decide then begin
    for i = nd.applied_chunks to upto - 1 do
      let c = nd.chunks.(i) in
      consume_chunk nd c 0;
      nd.applied_as_of <- c.c_as_of
    done;
    nd.applied_chunks <- upto;
    Option.iter (fun decide -> ignore (Recovery.resolve nd.runs ~decide)) decide;
    let apply = Db.raw_apply nd.db in
    let ordered = Recovery.order_ops (List.rev_append nd.parked (Recovery.take_committed nd.runs)) in
    nd.parked <- [];
    List.iter
      (fun ((_, r) as op) ->
        if base_missing nd.db r then nd.parked <- op :: nd.parked else Recovery.apply_op apply r)
      ordered
  end

(* ------------------------------------------------------------------ *)
(* The protocol *)

(* [f j] for every node [j] but [id] *)
let each_peer t id f =
  for j = 0 to t.n - 1 do
    if j <> id then f j
  done

let rec send t ~src ~dst m =
  if not t.stopped then
    Netchan.send t.chan ~src ~dst ~bytes:(msg_bytes m) (fun () -> deliver t ~dst m)

and broadcast t ~src m = each_peer t src (fun dst -> send t ~src ~dst m)

and deliver t ~dst m =
  let nd = t.nodes.(dst) in
  match nd.role with
  | Down -> ()
  | Primary | Follower | Candidate -> (
    if not t.stopped then
      match m with
      | Ship { src; view; base; prev_view; chunks; stream_chunks; sent_at } ->
        on_ship t nd ~src ~view ~base ~prev_view ~chunks ~stream_chunks ~sent_at
      | Ack { view; src; received; durable; last_view; off } ->
        on_ack t nd ~view ~src ~received ~durable ~last_view ~off
      | Vote_req { view; cand; last_view; durable } -> on_vote_req t nd ~view ~cand ~last_view ~durable
      | Vote_grant { view; src = _ } -> on_vote_grant t nd ~view
      | New_view { view; primary; base } -> on_new_view t nd ~view ~primary ~base);
    (* the sanitizer hook: a broken invariant is a bug *)
    if Sanitize.on () then Quorum_check.check (snapshot t)

(* Acknowledge the received and durable prefixes to the node followed,
   the durable one with its last chunk's view and end offset, so the
   primary can check the copies match. A fenced node acks nothing. *)
and ack t nd =
  if not (fenced nd) then begin
    let durable = nd.durable_chunks in
    let last_view = view_at nd durable and off = off_of nd durable in
    send t ~src:nd.id ~dst:nd.leader
      (Ack { view = nd.view; src = nd.id; received = nd.n_chunks; durable; last_view; off })
  end

(* Hear from [leader], the primary of this node's view: stop
   campaigning and restart the failure-detection clock. A fenced node
   takes the old view's chunks but not its leadership, so it keeps
   campaigning until a view at least as high as its grant forms. *)
and follow t nd ~leader =
  if not (fenced nd) then begin
    (match nd.role with Candidate -> nd.role <- Follower | _ -> ());
    nd.leader <- leader;
    nd.deadline <- Engine.now t.eng + follower_timeout nd.id
  end

and on_ship t nd ~src ~view ~base ~prev_view ~chunks ~stream_chunks ~sent_at =
  if view >= nd.view then begin
    if view > nd.view then enter_view t nd ~view ~base;
    follow t nd ~leader:src;
    (* Take only the next contiguous chunk: gaps and duplicates (drops,
       retransmits, rebuilds) heal via go-back-N. Its predecessor must
       be ours in view and end offset (Raft's prevLogTerm check), or our
       copy holds a deposed view's chunks the primary lacks: rebuild. *)
    let rec take i pv = function
      | [] -> ()
      | c :: rest ->
        if i = nd.n_chunks then
          if view_at nd i <> pv || off_of nd i <> c.c_start then rebuild_follower t nd
          else begin
            push_chunk nd c;
            let gen = nd.gen in
            Walstore.append nd.mirror ~file:c.c_file c.c_bytes ~on_durable:(fun () ->
                (* the replica's ack means *its mirror media* holds the
                   chunk — an honest durability vote, fault injection and
                   all — not merely that the bytes arrived *)
                if nd.gen = gen then begin
                  nd.on_media.(i) <- true;
                  if advance_durable nd then begin
                    apply_upto nd ~upto:nd.safe_chunks;
                    ack t nd
                  end
                end)
          end;
        take (i + 1) (view_of_file c.c_file) rest
    in
    take (stream_chunks - List.length chunks) prev_view chunks;
    (* a fully caught-up replica is as fresh as the primary's durable
       state at the heartbeat's send instant *)
    if
      nd.safe_chunks >= stream_chunks
      && nd.applied_chunks >= nd.safe_chunks
      && sent_at > nd.applied_as_of
    then nd.applied_as_of <- sent_at;
    ack t nd
  end

and on_ack t nd ~view ~src ~received ~durable ~last_view ~off =
  if nd.role = Primary && view = nd.view && durable <= nd.n_chunks then begin
    (* An ack past our stream end comes from a follower ahead of the new
       history; the view's base, in flight, will truncate or rebuild it.
       A durable prefix ending in another view than ours at that count
       is a deposed view's: no vote, and the re-ship from its received
       count rebuilds it. In one view, one count is one chunk. *)
    let matches = view_at nd durable = last_view and mine = off_of nd durable in
    if matches && off <> mine then
      Error.bug ~subsystem:"replication.quorum"
        "node %d acks %d chunks ending at byte %d; node %d's first %d end at byte %d: the \
         streams diverged"
        src durable off nd.id durable mine;
    Obs.Counter.incr t.c_acks;
    nd.rewind_after.(src) <- retransmit_timeout_ns;
    let received = min received nd.n_chunks in
    if received <> nd.recv_chunk.(src) then begin
      (* a follower that cut its copy (restart, a view's base) or held
         less than presumed at promotion is re-shipped from what it holds *)
      if received < nd.recv_chunk.(src) then nd.sent_chunk.(src) <- received;
      nd.recv_chunk.(src) <- received;
      nd.ack_progress_at.(src) <- Engine.now t.eng
    end;
    if matches then begin
      let grew = durable > nd.acked_chunk.(src) in
      nd.acked_chunk.(src) <- durable;
      if grew then wake_commit_waiters t nd
    end
  end

(* Sweep the primary's own WAL durable frontiers and cut the newly
   durable records into stream chunks: one pull = GSN-merge across
   files, maximal same-file runs, last chunk barrier-flagged. *)
and pull t nd =
  let wal = Db.wal nd.db in
  let store = Wal.store wal in
  (* Clamp the sweep to the global durable-GSN floor. Per-file durable
     frontiers advance independently, so without the clamp one pull can
     ship a high-GSN record while a lower-GSN record on a slower file is
     still buffered, and a later pull would hand the pair to the
     incremental applier out of the global GSN order crash recovery
     restores by sorting the whole log (e.g. same-table inserts out of
     row-id order). Under the floor the stream is a GSN-prefix of the
     log: per-writer GSNs are monotone, so cutting each file at the
     first record past the floor is a clean prefix cut, and everything
     at or below the floor is durable in every writer and ships now. *)
  let floor = Wal.durable_floor wal in
  let recs = ref [] in
  List.iter
    (fun file ->
      let contents = Walstore.contents store ~file in
      let limit = min (Walstore.durable_frontier store ~file) (Bytes.length contents) in
      (* stop at the first record beyond the floor or straddling the
         durable frontier *)
      let rec sweep off =
        if off >= limit then off
        else
          match Record.decode contents off with
          | r, off' when r.Record.gsn <= floor && off' <= limit ->
            recs := (r, file, Bytes.sub contents off (off' - off)) :: !recs;
            sweep off'
          | _ | (exception Failure _) -> off
      in
      let from_off = Option.value ~default:0 (Hashtbl.find_opt nd.pulled file) in
      Hashtbl.replace nd.pulled file (sweep from_off))
    (Walstore.files store);
  let ordered =
    List.sort
      (fun ((a : Record.t), fa, _) ((b : Record.t), fb, _) ->
        if a.gsn <> b.gsn then Int.compare a.gsn b.gsn
        else if fa <> fb then Int.compare fa fb
        else Int.compare a.lsn b.lsn)
      !recs
  in
  (* push each same-file run as it ends, the pull's last as its barrier;
     cut from the primary's own durable WAL, a chunk is durable here
     already *)
  let now = Engine.now t.eng in
  let rec cut_runs file bufs = function
    | (_, f, buf) :: rest when f = file -> cut_runs file (buf :: bufs) rest
    | rest -> (
      push_chunk nd
        {
          c_file = stream_file ~view:nd.view ~file;
          c_bytes = Bytes.concat Bytes.empty (List.rev bufs);
          c_start = off_of nd nd.n_chunks;
          c_as_of = now;
          c_barrier = rest = [];
        };
      nd.on_media.(nd.n_chunks - 1) <- true;
      match rest with (_, f, buf) :: rest -> cut_runs f [ buf ] rest | [] -> ())
  in
  (match ordered with (_, f, buf) :: rest -> cut_runs f [ buf ] rest | [] -> ());
  ignore (advance_durable nd);
  List.iter
    (fun w -> if Option.is_none w.w_target then w.w_target <- commit_target nd ~floor ~gsn:w.w_gsn)
    nd.waiters

and tick_ship t nd j =
  let now = Engine.now t.eng in
  if nd.recv_chunk.(j) < nd.sent_chunk.(j) && now - nd.ack_progress_at.(j) > nd.rewind_after.(j)
  then begin
    (* go-back-N: rewind to what the peer holds and re-ship; a slow
       mirror delays its durable count, not its received one. Each
       rewind doubles the wait for the next, up to the election timeout,
       and any ack resets it: a dead peer is not re-sent the whole view
       every millisecond, and a live one acks the heartbeats. *)
    nd.rewind_after.(j) <- min election_timeout_ns (2 * nd.rewind_after.(j));
    nd.sent_chunk.(j) <- nd.recv_chunk.(j);
    nd.ack_progress_at.(j) <- now;
    Obs.Counter.incr t.c_retransmits
  end
  else if nd.recv_chunk.(j) >= nd.sent_chunk.(j) then
    (* nothing outstanding: the retransmit clock starts with this ship *)
    nd.ack_progress_at.(j) <- now;
  let from = nd.sent_chunk.(j) in
  let chunks = Array.to_list (Array.sub nd.chunks from (nd.n_chunks - from)) in
  Obs.Counter.incr t.c_ships;
  send t ~src:nd.id ~dst:j
    (Ship
       {
         src = nd.id;
         view = nd.view;
         base = nd.view_base;
         prev_view = view_at nd from;
         chunks;
         stream_chunks = nd.n_chunks;
         sent_at = now;
       });
  nd.sent_chunk.(j) <- nd.n_chunks

and start_election t nd =
  (* [voted_view] covers every view requested of this node, refused
     ones too, so a node whose longer prefix keeps getting refused
     leapfrogs the refuser's self-voted views instead of chasing them
     one by one *)
  let v = nd.voted_view + 1 in
  (* the proposal is recorded as the self-vote, not entered: [view]
     stays the last view this node followed or led, so a candidate
     whose partition heals still takes that view's Ship and rejoins *)
  nd.role <- Candidate;
  nd.voted_view <- v;
  nd.votes <- 1;
  (* jittered per-round timeout (Raft-style): identical fixed rounds
     phase-lock two candidates into refusing each other forever *)
  nd.deadline <- Engine.now t.eng + election_timeout_ns + Prng.int nd.rng election_timeout_ns;
  Obs.Counter.incr t.c_elections;
  let durable = nd.durable_chunks in
  broadcast t ~src:nd.id
    (Vote_req { view = v; cand = nd.id; last_view = view_at nd durable; durable })

and on_vote_req t nd ~view ~cand ~last_view ~durable =
  match nd.role with
  | Primary | Down -> ()
  | Follower | Candidate ->
    (* grant iff the candidate's durable stream prefix is at least as
       up to date as ours (Raft's rule): it ends in a later view, or in
       the same view and is at least as long. Two prefixes ending in one
       view are both prefixes of that view's stream, so their counts
       order them; a longer prefix ending in an earlier view may hold
       chunks a later view rewrote. Quorum intersection then guarantees
       the winner holds every quorum-acknowledged commit. *)
    let mine = view_at nd nd.durable_chunks in
    let grant =
      view > nd.voted_view
      && (last_view > mine || (last_view = mine && durable >= nd.durable_chunks))
    in
    (* a refused view is spent too: this node votes in it no more *)
    nd.voted_view <- max nd.voted_view view;
    if grant then begin
      nd.granted_view <- view;
      (* defer to the better candidate as a follower (Raft): a full
         follower timeout for the grantee to win and announce *)
      nd.role <- Follower;
      nd.deadline <- Engine.now t.eng + follower_timeout nd.id;
      send t ~src:nd.id ~dst:cand (Vote_grant { view; src = nd.id })
    end

and on_vote_grant t nd ~view =
  match nd.role with
  | Candidate when view = nd.voted_view ->
    nd.votes <- nd.votes + 1;
    if nd.votes >= t.majority then become_primary t nd
  | _ -> ()

and become_primary t nd =
  nd.view <- nd.voted_view;
  t.promotions <- (nd.view, nd.id) :: t.promotions;
  (* Cut back to the durable pull-barrier prefix. Any quorum-acked
     commit's target T is a barrier chunk count with a majority of nodes
     durable >= T, each of which acked it before granting any later view
     (a grant fences its acks); this node won a majority of votes, each
     granted only because its durable prefix was at least as up to date
     as the voter's; the two majorities intersect, so this node's
     durable prefix holds T and hence safe_chunks >= T: the cut never
     discards an acknowledged commit. In-doubt prepared runs
     are resolved exactly like crash recovery: the branches decided
     commit join the last batch's ordered apply. *)
  apply_upto nd ~upto:nd.safe_chunks ~decide:t.decide;
  cut nd ~keep:nd.safe_chunks;
  nd.view_base <- nd.n_chunks;
  nd.runs <- fresh_runs ();
  (* a parked op here is a committed transaction whose base row never
     arrived — the stream lost acknowledged writes; refuse to serve *)
  (match nd.parked with
  | [] -> ()
  | parked ->
    Error.bug ~subsystem:"replication.quorum"
      "view %d promotion on node %d: %d operation(s) of committed transactions reference rows \
       that never arrived — refusing to discard acknowledged writes"
      nd.view nd.id (List.length parked));
  nd.role <- Primary;
  nd.leader <- nd.id;
  Obs.Counter.incr t.c_view_changes;
  Hashtbl.reset nd.pulled;
  nd.waiters <- [];
  let now = Engine.now t.eng in
  for j = 0 to t.n - 1 do
    (* presume peers hold our whole prefix; a smaller first ack rewinds
       the cursor (on_ack), a diverged peer rebuilds (enter_view) *)
    nd.sent_chunk.(j) <- nd.n_chunks;
    nd.recv_chunk.(j) <- nd.n_chunks;
    nd.acked_chunk.(j) <- nd.n_chunks;
    nd.ack_progress_at.(j) <- now;
    nd.rewind_after.(j) <- retransmit_timeout_ns
  done;
  broadcast t ~src:nd.id (New_view { view = nd.view; primary = nd.id; base = nd.view_base });
  schedule_tick t nd nd.gen

(* Enter [view], whose stream began from [base] chunks: from its
   New_view, or from its first Ship if the New_view was lost. [follow]
   then takes its primary as leader. *)
and enter_view t nd ~view ~base =
  if view > nd.view then begin
    (match nd.role with
    | Primary ->
      (* deposed: its tables hold transactions it executed itself, beyond
         what any stream replay can reconcile, so resync from scratch
         (the cut voids the shipping loop and pending commit waits) *)
      nd.role <- Follower;
      rebuild_follower t nd
    | Follower | Candidate | Down -> ());
    nd.view <- view;
    nd.voted_view <- max nd.voted_view view
  end;
  match nd.role with
  | Follower | Candidate ->
    if nd.safe_chunks > base then
      (* applied beyond the new authority's history: cannot unapply *)
      rebuild_follower t nd
    else if nd.n_chunks > base then
      (* chunks past the new stream's base were never quorum-acked and
         the new view will rewrite those positions: drop them *)
      cut nd ~keep:base
  | Primary | Down -> ()

and on_new_view t nd ~view ~primary ~base =
  if view >= nd.view then begin
    enter_view t nd ~view ~base;
    follow t nd ~leader:primary;
    ack t nd
  end

and rebuild_follower t nd =
  Obs.Counter.incr t.c_rebuilds;
  cut nd ~keep:0;
  reset_replica t nd
(* the mirror keeps orphaned bytes of the abandoned stream copy;
   re-shipped chunks append again (append-only media) and replay reads
   the chunk stream, so orphans are never decoded *)

(* A fresh database with nothing applied: the stream is re-applied
   from its first chunk. *)
and reset_replica t nd =
  nd.db <- Db.create_on t.eng t.dbcfg;
  t.ddl nd.db;
  install_barrier t nd;
  nd.runs <- fresh_runs ();
  nd.parked <- [];
  nd.applied_chunks <- 0;
  nd.applied_as_of <- 0

and install_barrier t nd = Txnmgr.set_commit_barrier (Db.txnmgr nd.db) (Some (commit_barrier t nd))

(* The quorum durability barrier, run by Txnmgr after a writing
   commit/prepare's local WAL wait: pull the freshly durable records
   into the stream, and if a majority of the group is not yet durable
   up to the new stream end, nudge shipping and park the fiber until
   the acknowledgements arrive. Commit visibility (lock release,
   watermark advance) stays gated meanwhile. *)
and commit_barrier t nd ~slot ~lsn:_ =
  match nd.role with
  | Primary ->
    (* The local durability wait just completed, so the committing
       transaction's records (all with GSN <= its writer's flushed-GSN
       frontier) are on media — but they only enter the stream once the
       global durable floor passes that GSN, which other writers'
       unflushed buffers may be holding down. Wait for floor passage
       (resolved to a target chunk count by a pull), then for a
       majority durable up to the target. *)
    let wal = Db.wal nd.db in
    let gsn = Wal.flushed_gsn wal ~slot in
    pull t nd;
    let target = commit_target nd ~floor:(Wal.durable_floor wal) ~gsn in
    let satisfied () =
      match target with Some tg -> quorum_chunks t nd >= tg | None -> false
    in
    if satisfied () then Option.iter (fun target -> note_release t nd ~target) target
    else begin
      Obs.Counter.incr t.c_quorum_waits;
      each_peer t nd.id (tick_ship t nd);
      if not (satisfied ()) then
        park_commit (fun wt ->
            nd.waiters <-
              {
                w_gsn = gsn;
                w_target = target;
                w_resume = (fun () -> ignore (Scheduler.wake_waiter wt Scheduler.Signalled));
              }
              :: nd.waiters)
    end
  | Follower | Candidate | Down ->
    (* The executing db is not an accepting primary: the process died
       or was deposed with this transaction in flight. Its commit must
       never be acknowledged — the client's server went silent — so
       park the fiber with no waker. *)
    park_commit ignore

and schedule_tick t nd gen =
  Engine.schedule t.eng ~delay:poll_interval_ns (fun () ->
      if (not t.stopped) && nd.gen = gen && nd.role = Primary then begin
        (* commits parked below the durable-GSN floor need the other
           writers' buffers on media before the floor can pass them *)
        if List.exists (fun w -> Option.is_none w.w_target) nd.waiters then
          Wal.flush_all (Db.wal nd.db) ~on_done:(fun () -> ());
        pull t nd;
        each_peer t nd.id (tick_ship t nd);
        wake_commit_waiters t nd;
        schedule_tick t nd gen
      end)

let rec schedule_monitor t nd =
  Engine.schedule t.eng ~delay:(election_timeout_ns / 4) (fun () ->
      if not t.stopped then begin
        (match nd.role with
        | (Follower | Candidate) when Engine.now t.eng > nd.deadline -> start_election t nd
        | Follower | Candidate | Primary | Down -> ());
        schedule_monitor t nd
      end)

(* ------------------------------------------------------------------ *)
(* Oracle replay through the crash-recovery path *)

let replay_durable_prefix t ~node ~into =
  let nd = t.nodes.(node) in
  (* replay each primary generation's run of the journaled prefix in
     order, exactly like recovering from that WAL: views never decrease
     along a chunk table, so each run is contiguous *)
  let i = ref 0 in
  while !i < nd.safe_chunks do
    let v = view_of_file nd.chunks.(!i).c_file in
    let name = Printf.sprintf "replay-v%d" v in
    let store = Walstore.create (Device.create t.eng ~name Device.pm9a3) in
    while !i < nd.safe_chunks && view_of_file nd.chunks.(!i).c_file = v do
      let c = nd.chunks.(!i) in
      Walstore.append store ~file:c.c_file c.c_bytes ~on_durable:(fun () -> ());
      incr i
    done;
    ignore (Db.replay_wal ~decide_in_doubt:t.decide into ~from:store)
  done

(* ------------------------------------------------------------------ *)
(* Construction and public surface *)

let view t = Array.fold_left (fun a nd -> max a nd.view) 0 t.nodes

let create ?(group = default_config) ?(decide_in_doubt = fun (_ : Recovery.in_doubt) -> false)
    dbcfg ~ddl =
  if group.replicas < 1 then invalid_arg "Quorum.create: need at least one replica";
  let n = group.replicas + 1 in
  let eng = Engine.create () in
  let obs = Obs.create () in
  let chan =
    Netchan.create ~drop_p:group.drop_p ~seed:group.net_seed eng ~nodes:n
      ~latency_ns:group.latency_ns ~gbps
  in
  let t =
    {
      eng;
      dbcfg;
      ddl;
      decide = decide_in_doubt;
      obs;
      chan;
      nodes = [||];
      n;
      majority = (n / 2) + 1;
      stopped = false;
      promotions = [ (1, 0) ];
      releases = [];
      c_ships = Obs.counter obs "quorum.ship_msgs";
      c_acks = Obs.counter obs "quorum.acks";
      c_retransmits = Obs.counter obs "quorum.retransmits";
      c_elections = Obs.counter obs "quorum.elections";
      c_view_changes = Obs.counter obs "quorum.view_changes";
      c_quorum_waits = Obs.counter obs "quorum.commit_waits";
      c_follower_reads = Obs.counter obs "quorum.follower_reads";
      c_stale_reads = Obs.counter obs "quorum.stale_reads";
      c_rebuilds = Obs.counter obs "quorum.rebuilds";
    }
  in
  let mk id =
    let db = Db.create_on eng dbcfg in
    ddl db;
    let mfaults =
      Option.map
        (fun fc -> { fc with Device.fault_seed = fc.Device.fault_seed + 101 + (7 * id) })
        dbcfg.Config.faults
    in
    let mirror =
      Walstore.create
        (Device.create ~obs ?faults:mfaults eng ~name:(Printf.sprintf "mirror%d" id) Device.pm9a3)
    in
    {
      id;
      db;
      mirror;
      gen = 0;
      chunks = [||];
      on_media = [||];
      n_chunks = 0;
      durable_chunks = 0;
      safe_chunks = 0;
      applied_chunks = 0;
      applied_as_of = 0;
      view_base = 0;
      runs = fresh_runs ();
      parked = [];
      role = (if id = 0 then Primary else Follower);
      view = 1;
      voted_view = 1;
      granted_view = 1;
      votes = 0;
      leader = 0;
      deadline = follower_timeout id;
      rng = Prng.create ~seed:(group.net_seed + (977 * id) + 13);
      pulled = Hashtbl.create 16;
      sent_chunk = Array.make n 0;
      recv_chunk = Array.make n 0;
      acked_chunk = Array.make n 0;
      ack_progress_at = Array.make n 0;
      rewind_after = Array.make n retransmit_timeout_ns;
      waiters = [];
    }
  in
  t.nodes <- Array.init n mk;
  Array.iter (fun nd -> install_barrier t nd) t.nodes;
  Obs.int_fn obs "quorum.view" (fun () -> view t);
  Obs.int_fn obs "quorum.net_dropped" (fun () -> Netchan.dropped chan);
  Obs.int_fn obs "quorum.net_msgs" (fun () -> Netchan.msgs chan);
  Obs.int_fn obs "quorum.net_bytes" (fun () -> Netchan.bytes chan);
  schedule_tick t t.nodes.(0) 0;
  Array.iter (fun nd -> schedule_monitor t nd) t.nodes;
  t

let engine t = t.eng
let obs t = t.obs
let nodes t = t.n

let primary t =
  Array.fold_left
    (fun best nd ->
      match (nd.role, best) with
      | Primary, Some b when t.nodes.(b).view >= nd.view -> best
      | Primary, _ -> Some nd.id
      | (Follower | Candidate | Down), _ -> best)
    None t.nodes

let db t ~node = t.nodes.(node).db
let primary_db t = Option.map (fun id -> t.nodes.(id).db) (primary t)
let is_alive t ~node = match t.nodes.(node).role with Down -> false | _ -> true
let durable_off t ~node =
  let nd = t.nodes.(node) in
  off_of nd nd.durable_chunks

let stream_len t =
  match primary t with Some p -> off_of t.nodes.(p) t.nodes.(p).n_chunks | None -> 0

let net_utilization t = Netchan.utilization t.chan
let mirror_utilization t ~node = Device.busy_fraction (Walstore.device t.nodes.(node).mirror)
let run_for t ~ns = Engine.run_until t.eng ~time:(Engine.now t.eng + ns)
let shutdown t = t.stopped <- true
let set_partitioned t ~node p = Netchan.set_partitioned t.chan ~node p

let kill t ~node =
  let nd = t.nodes.(node) in
  (* a dead process: stop serving, void pending durability closures,
     and drop off the network. Its parked commit fibers never resume —
     those commits were never acknowledged to anyone. *)
  nd.gen <- nd.gen + 1;
  nd.role <- Down;
  Netchan.set_partitioned t.chan ~node true;
  nd.waiters <- []

let staleness_ns t ~node =
  let nd = t.nodes.(node) in
  match nd.role with Primary -> 0 | Follower | Candidate | Down -> Engine.now t.eng - nd.applied_as_of

let follower_read ?max_staleness_ns t ~node f =
  let nd = t.nodes.(node) in
  (match nd.role with
  | Down -> invalid_arg "Quorum.follower_read: node is down"
  | Primary | Follower | Candidate -> ());
  let bound = Option.value ~default:staleness_bound_ns max_staleness_ns in
  let s = staleness_ns t ~node in
  if s > bound then begin
    Obs.Counter.incr t.c_stale_reads;
    raise (Stale_read { node; staleness_ns = s; bound_ns = bound })
  end;
  Obs.Counter.incr t.c_follower_reads;
  Db.with_txn nd.db f

let restart_follower t ~node =
  let nd = t.nodes.(node) in
  (match nd.role with
  | Primary -> invalid_arg "Quorum.restart_follower: node is the primary"
  | Down -> invalid_arg "Quorum.restart_follower: node is down"
  | Follower | Candidate -> ());
  (* process restart: the volatile tail past the last durable pull
     barrier is lost; the journaled chunk prefix is re-applied into a
     fresh instance through the streaming applier, so a branch still in
     doubt stays held until its decision arrives *)
  cut nd ~keep:nd.safe_chunks;
  reset_replica t nd;
  apply_upto nd ~upto:nd.safe_chunks;
  nd.role <- Follower;
  nd.deadline <- Engine.now t.eng + follower_timeout nd.id
