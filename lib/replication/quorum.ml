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

type config = {
  replicas : int;
  latency_ns : int;
  gbps : float;
  drop_p : float;
  net_seed : int;
  poll_interval_ns : int;
  election_timeout_ns : int;
  retransmit_timeout_ns : int;
  staleness_bound_ns : int;
}

let default_config =
  {
    replicas = 2;
    latency_ns = 50_000;
    gbps = 10.0;
    drop_p = 0.0;
    net_seed = 11;
    poll_interval_ns = 200_000;
    election_timeout_ns = 10_000_000;
    retransmit_timeout_ns = 1_000_000;
    staleness_bound_ns = 5_000_000;
  }

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
   last durable barrier. Cumulative stream offsets give every replica
   state a single-integer summary, which is what the election's
   longest-durable-prefix rule compares. *)

(* WAL file ids are reused across views (they are writer slots); the
   stream namespaces them per view so catch-up replay can process each
   primary generation separately, in order. *)
let view_stride = 1 lsl 16

let stream_file ~view ~file = (view * view_stride) + file
let view_of_file f = f / view_stride

type chunk = {
  c_file : int;  (** view-namespaced WAL file id *)
  c_bytes : Bytes.t;
  mutable c_start : int;  (** cumulative stream offset of the first byte *)
  c_as_of : int;  (** primary virtual time when the pull was cut *)
  mutable c_barrier : bool;  (** last chunk of its pull: a safe cut point *)
}

type role = Primary | Follower | Candidate | Down

let is_primary nd_role = match nd_role with Primary -> true | _ -> false

(* A quorum commit wait. The committing transaction's records all carry
   GSN <= [w_gsn]; they are guaranteed to be in the stream only once
   the WAL's durable-GSN floor passes [w_gsn] (pulls clamp to the
   floor), at which point the pull resolves the wait to a concrete
   stream-offset target. The fiber resumes when a majority is durable
   up to that target. *)
type waiter = {
  w_gsn : int;
  mutable w_target : int option;
  w_resume : unit -> unit;
}

type node = {
  id : int;
  mutable db : Db.t;
  mutable mirror : Walstore.t;  (** replica-side durable copy of the stream *)
  mutable gen : int;  (** bumped on restart/truncation: voids stale closures *)
  (* stream replica state *)
  mutable chunks : chunk array;
  mutable n_chunks : int;
  chunk_done : (int, unit) Hashtbl.t;  (** chunk idx -> mirror append durable *)
  mutable recv_off : int;  (** contiguously received stream bytes *)
  mutable durable_chunks : int;
  mutable durable_off : int;  (** contiguously durable stream bytes *)
  mutable safe_chunks : int;  (** chunks up to the last durable pull barrier *)
  mutable safe_off : int;
  mutable applied_chunks : int;
  mutable applied_as_of : int;  (** primary time the applied state reflects *)
  mutable runs : Recovery.runs;  (** per stream file: undecided record runs *)
  mutable parked : (int * Record.t) list;  (** committed ops missing their base row *)
  (* role / view *)
  mutable role : role;
  mutable view : int;
  mutable voted_view : int;  (** highest view this node granted a vote in *)
  mutable seen_view : int;  (** highest view seen in any vote request *)
  mutable votes : int;
  mutable leader : int;
  mutable last_heard : int;
  mutable election_started : int;
  mutable round_timeout : int;  (** this candidacy round's jittered timeout *)
  rng : Prng.t;  (** per-node deterministic election jitter *)
  (* primary-side shipping state, indexed by peer id *)
  pulled : (int, int) Hashtbl.t;  (** per local WAL file: bytes pulled *)
  sent_chunk : int array;
  sent_off : int array;
  acked_off : int array;
  ack_progress_at : int array;
  mutable waiters : waiter list;  (** quorum commit waits *)
}

type t = {
  eng : Engine.t;
  dbcfg : Config.t;
  gcfg : config;
  ddl : Db.t -> unit;
  decide : Recovery.in_doubt -> bool;
  obs : Obs.t;
  chan : Netchan.t;
  mutable nodes : node array;
  n : int;
  majority : int;
  mutable stopped : bool;
  mutable replay_seq : int;
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
  | Ship of { src : int; view : int; chunks : chunk list; stream_len : int; sent_at : int }
  | Ack of { view : int; src : int; off : int }
  | Vote_req of { view : int; cand : int; off : int }
  | Vote_grant of { view : int; src : int }
  | New_view of { view : int; primary : int; stream_len : int }

let msg_bytes = function
  | Ship { chunks; _ } -> List.fold_left (fun a c -> a + 32 + Bytes.length c.c_bytes) 64 chunks
  | Ack _ | Vote_req _ | Vote_grant _ | New_view _ -> 64

(* ------------------------------------------------------------------ *)
(* Stream bookkeeping helpers *)

let push_chunk nd c =
  if nd.n_chunks = Array.length nd.chunks then begin
    let cap = max 64 (2 * Array.length nd.chunks) in
    let bigger = Array.make cap c in
    Array.blit nd.chunks 0 bigger 0 nd.n_chunks;
    nd.chunks <- bigger
  end;
  nd.chunks.(nd.n_chunks) <- c;
  nd.n_chunks <- nd.n_chunks + 1

(* Index of the chunk starting at stream offset [off] ([n_chunks] when
   [off] is the stream end). All copies of the stream share chunk
   boundaries, so cross-node offsets always land on one. *)
let chunk_index_at nd off =
  if off = nd.recv_off then nd.n_chunks
  else begin
    let lo = ref 0 and hi = ref (nd.n_chunks - 1) and found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let s = nd.chunks.(mid).c_start in
      if s = off then found := mid else if s < off then lo := mid + 1 else hi := mid - 1
    done;
    if !found < 0 then
      Error.bug ~subsystem:"replication.quorum" "offset %d is not a chunk boundary on node %d" off
        nd.id;
    !found
  end

let prune_done nd =
  let stale =
    Hashtbl.fold (fun idx () acc -> if idx >= nd.n_chunks then idx :: acc else acc) nd.chunk_done []
  in
  List.iter (fun idx -> Hashtbl.remove nd.chunk_done idx) stale

(* Drop all chunks past stream offset [off] (a chunk boundary <= recv_off).
   Bumps [gen]: in-flight mirror-durability closures for retained
   not-yet-durable chunks are voided too — the primary's retransmit
   rewind re-ships and re-appends them. *)
let truncate_stream nd ~off =
  let keep = chunk_index_at nd off in
  nd.gen <- nd.gen + 1;
  nd.n_chunks <- keep;
  nd.recv_off <- off;
  if nd.durable_off > off then begin
    nd.durable_chunks <- keep;
    nd.durable_off <- off
  end;
  prune_done nd

(* k-th largest durable stream offset across the group, counting the
   primary's own durable prefix: the quorum-acknowledged frontier. *)
let quorum_off t p =
  let offs = Array.init t.n (fun j -> if j = p.id then p.durable_off else p.acked_off.(j)) in
  Array.sort (fun a b -> Int.compare b a) offs;
  offs.(t.majority - 1)

let wake_commit_waiters t p =
  match p.waiters with
  | [] -> ()
  | waiters ->
    let q = quorum_off t p in
    let ready, rest =
      List.partition
        (fun w -> match w.w_target with Some target -> target <= q | None -> false)
        waiters
    in
    p.waiters <- rest;
    List.iter (fun w -> w.w_resume ()) ready

let advance_durable nd =
  let advanced = ref false in
  while nd.durable_chunks < nd.n_chunks && Hashtbl.mem nd.chunk_done nd.durable_chunks do
    let c = nd.chunks.(nd.durable_chunks) in
    nd.durable_chunks <- nd.durable_chunks + 1;
    nd.durable_off <- c.c_start + Bytes.length c.c_bytes;
    if c.c_barrier then begin
      nd.safe_chunks <- nd.durable_chunks;
      nd.safe_off <- nd.durable_off
    end;
    advanced := true
  done;
  !advanced

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

let consume_chunk nd c =
  let len = Bytes.length c.c_bytes in
  let off = ref 0 in
  while !off < len do
    match Record.decode c.c_bytes !off with
    | r, off' ->
      off := off';
      Recovery.feed nd.runs ~file:c.c_file r
    | exception Failure msg ->
      Error.bug ~subsystem:"replication.quorum" "corrupt stream chunk on node %d: %s" nd.id msg
  done

(* Consume chunks [applied_chunks, upto) and apply their committed
   transactions — at promotion also the in-doubt branches [decide]
   commits — in one recovery-ordered batch with the parked ops. Callers
   cut only at pull barriers, so the batch is transactionally closed. *)
let apply_upto ?decide nd ~upto =
  if nd.applied_chunks < upto || Option.is_some decide then begin
    for i = nd.applied_chunks to upto - 1 do
      let c = nd.chunks.(i) in
      consume_chunk nd c;
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

let apply_safe nd =
  match nd.role with Primary | Down -> () | Follower | Candidate -> apply_upto nd ~upto:nd.safe_chunks

(* ------------------------------------------------------------------ *)
(* The protocol *)

let rec send t ~src ~dst m =
  if not t.stopped then
    Netchan.send t.chan ~src ~dst ~bytes:(msg_bytes m) (fun () -> deliver t ~dst m)

and broadcast t ~src m =
  for j = 0 to t.n - 1 do
    if j <> src then send t ~src ~dst:j m
  done

and deliver t ~dst m =
  let nd = t.nodes.(dst) in
  match nd.role with
  | Down -> ()
  | Primary | Follower | Candidate -> (
    if not t.stopped then
      match m with
      | Ship { src; view; chunks; stream_len; sent_at } ->
        on_ship t nd ~src ~view ~chunks ~stream_len ~sent_at
      | Ack { view; src; off } -> on_ack t nd ~view ~src ~off
      | Vote_req { view; cand; off } -> on_vote_req t nd ~view ~cand ~off
      | Vote_grant { view; src = _ } -> on_vote_grant t nd ~view
      | New_view { view; primary; stream_len } -> on_new_view t nd ~view ~primary ~stream_len)

and on_ship t nd ~src ~view ~chunks ~stream_len ~sent_at =
  if view >= nd.view then begin
    if view > nd.view then adopt_view t nd ~view ~leader:src;
    (match nd.role with Candidate -> nd.role <- Follower | _ -> ());
    nd.leader <- src;
    nd.last_heard <- Engine.now t.eng;
    List.iter
      (fun c ->
        (* accept only the next contiguous chunk; gaps and duplicates
           (drops, retransmits, rebuilds) heal via go-back-N *)
        if c.c_start = nd.recv_off then begin
          push_chunk nd c;
          let idx = nd.n_chunks - 1 and gen = nd.gen in
          nd.recv_off <- nd.recv_off + Bytes.length c.c_bytes;
          Walstore.append nd.mirror ~file:c.c_file c.c_bytes ~on_durable:(fun () ->
              (* the replica's ack means *its mirror media* holds the
                 chunk — an honest durability vote, fault injection and
                 all — not merely that the bytes arrived *)
              if nd.gen = gen then begin
                Hashtbl.replace nd.chunk_done idx ();
                if advance_durable nd then begin
                  apply_safe nd;
                  send t ~src:nd.id ~dst:nd.leader
                    (Ack { view = nd.view; src = nd.id; off = nd.durable_off })
                end
              end)
        end)
      chunks;
    (* a fully caught-up replica is as fresh as the primary's durable
       state at the heartbeat's send instant *)
    if nd.safe_off >= stream_len && nd.applied_chunks >= nd.safe_chunks && sent_at > nd.applied_as_of
    then nd.applied_as_of <- sent_at;
    send t ~src:nd.id ~dst:src (Ack { view = nd.view; src = nd.id; off = nd.durable_off })
  end

and on_ack t nd ~view ~src ~off =
  if is_primary nd.role && view = nd.view && off <= nd.recv_off then begin
    (* an ack past our stream end comes from a follower ahead of the
       new history; the New_view in flight will truncate or rebuild it *)
    Obs.Counter.incr t.c_acks;
    let now = Engine.now t.eng in
    if off < nd.acked_off.(src) then begin
      (* the follower restarted (or was presumed caught-up at promotion)
         and holds less than we thought: rewind its cursor *)
      nd.acked_off.(src) <- off;
      nd.sent_chunk.(src) <- chunk_index_at nd off;
      nd.sent_off.(src) <- off;
      nd.ack_progress_at.(src) <- now
    end
    else if off > nd.acked_off.(src) then begin
      nd.acked_off.(src) <- off;
      nd.ack_progress_at.(src) <- now;
      wake_commit_waiters t nd
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
      let from_off = Option.value ~default:0 (Hashtbl.find_opt nd.pulled file) in
      if limit > from_off then begin
        let off = ref from_off in
        let continue = ref true in
        while !continue && !off < limit do
          match Record.decode contents !off with
          | r, _ when r.Record.gsn > floor -> continue := false (* beyond the floor *)
          | r, off' when off' <= limit ->
            recs := (r, file, Bytes.sub contents !off (off' - !off)) :: !recs;
            off := off'
          | _, _ -> continue := false (* record straddles the frontier *)
          | exception Failure _ -> continue := false
        done;
        Hashtbl.replace nd.pulled file !off
      end)
    (Walstore.files store);
  (match !recs with
  | [] -> ()
  | recs_ ->
    let ordered =
      List.sort
        (fun ((a : Record.t), fa, _) ((b : Record.t), fb, _) ->
          let c = Int.compare a.Record.gsn b.Record.gsn in
          if c <> 0 then c
          else begin
            let c = Int.compare fa fb in
            if c <> 0 then c else Int.compare a.Record.lsn b.Record.lsn
          end)
        (List.rev recs_)
    in
    let now = Engine.now t.eng in
    let cut = ref [] in
    let cur_file = ref (-1) in
    let cur_bufs = ref [] in
    let flush () =
      if !cur_bufs <> [] then begin
        let bytes_ = Bytes.concat Bytes.empty (List.rev !cur_bufs) in
        cut :=
          {
            c_file = stream_file ~view:nd.view ~file:!cur_file;
            c_bytes = bytes_;
            c_start = 0;
            c_as_of = now;
            c_barrier = false;
          }
          :: !cut;
        cur_bufs := []
      end
    in
    List.iter
      (fun ((_ : Record.t), file, buf) ->
        if file <> !cur_file then begin
          flush ();
          cur_file := file
        end;
        cur_bufs := buf :: !cur_bufs)
      ordered;
    flush ();
    (match !cut with last :: _ -> last.c_barrier <- true | [] -> ());
    List.iter
      (fun c ->
        c.c_start <- nd.recv_off;
        push_chunk nd c;
        (* cut from the primary's own durable WAL: durable here already *)
        Hashtbl.replace nd.chunk_done (nd.n_chunks - 1) ();
        nd.recv_off <- nd.recv_off + Bytes.length c.c_bytes;
        ignore (advance_durable nd))
      (List.rev !cut));
  (* commit waits whose GSN the floor has now passed have all their
     records in the stream: fix their quorum target at the new end *)
  List.iter
    (fun w ->
      match w.w_target with
      | None when w.w_gsn <= floor -> w.w_target <- Some nd.recv_off
      | None | Some _ -> ())
    nd.waiters

and tick_ship t nd j =
  let now = Engine.now t.eng in
  if
    nd.acked_off.(j) < nd.sent_off.(j)
    && now - nd.ack_progress_at.(j) > t.gcfg.retransmit_timeout_ns
  then begin
    (* go-back-N: rewind to the acknowledged prefix and re-ship *)
    nd.sent_chunk.(j) <- chunk_index_at nd nd.acked_off.(j);
    nd.sent_off.(j) <- nd.acked_off.(j);
    nd.ack_progress_at.(j) <- now;
    Obs.Counter.incr t.c_retransmits
  end;
  let from = nd.sent_chunk.(j) in
  let chunks =
    if from < nd.n_chunks then Array.to_list (Array.sub nd.chunks from (nd.n_chunks - from)) else []
  in
  Obs.Counter.incr t.c_ships;
  send t ~src:nd.id ~dst:j
    (Ship { src = nd.id; view = nd.view; chunks; stream_len = nd.recv_off; sent_at = now });
  nd.sent_chunk.(j) <- nd.n_chunks;
  nd.sent_off.(j) <- nd.recv_off

(* Failure detection is staggered deterministically by node id so one
   follower times out first and elections rarely split. *)
and follower_timeout t nd = t.gcfg.election_timeout_ns + nd.id * t.gcfg.election_timeout_ns / 4

and start_election t nd =
  (* base the candidacy past every view seen in a refused request, so a
     node whose longer prefix keeps getting refused leapfrogs the
     refuser's self-voted views instead of chasing them one by one *)
  let v = max nd.view (max nd.voted_view nd.seen_view) + 1 in
  nd.role <- Candidate;
  nd.view <- v;
  nd.voted_view <- v;
  nd.votes <- 1;
  nd.election_started <- Engine.now t.eng;
  nd.last_heard <- Engine.now t.eng;
  (* jittered per-round timeout (Raft-style): identical fixed rounds
     phase-lock two candidates into refusing each other forever *)
  nd.round_timeout <-
    t.gcfg.election_timeout_ns + Prng.int nd.rng t.gcfg.election_timeout_ns;
  Obs.Counter.incr t.c_elections;
  if nd.votes >= t.majority then become_primary t nd
  else broadcast t ~src:nd.id (Vote_req { view = v; cand = nd.id; off = nd.durable_off })

and on_vote_req t nd ~view ~cand ~off =
  match nd.role with
  | Primary | Down -> ()
  | Follower | Candidate ->
    nd.seen_view <- max nd.seen_view view;
    (* grant iff the candidate's durable stream prefix is at least ours:
       quorum intersection then guarantees the winner holds every
       quorum-acknowledged commit *)
    if view > nd.voted_view && off >= nd.durable_off then begin
      nd.voted_view <- view;
      (* defer to the better candidate: hold our own timeout and round
         back so the grantee has a full round to win and announce *)
      nd.last_heard <- Engine.now t.eng;
      nd.election_started <- Engine.now t.eng;
      send t ~src:nd.id ~dst:cand (Vote_grant { view; src = nd.id })
    end

and on_vote_grant t nd ~view =
  match nd.role with
  | Candidate when view = nd.view ->
    nd.votes <- nd.votes + 1;
    if nd.votes >= t.majority then become_primary t nd
  | _ -> ()

and become_primary t nd =
  (* Cut back to the durable pull-barrier prefix. Any quorum-acked
     commit's target T is a barrier offset with a majority of nodes
     durable >= T; this node won a majority of votes, each granted only
     because its durable prefix >= the voter's; the two majorities
     intersect, so durable_off >= T and hence safe_off >= T: truncation
     never discards an acknowledged commit. In-doubt prepared runs are
     resolved exactly like crash recovery: the branches decided commit
     join the last batch's ordered apply. *)
  apply_upto nd ~upto:nd.safe_chunks ~decide:t.decide;
  truncate_stream nd ~off:nd.safe_off;
  nd.durable_chunks <- nd.n_chunks;
  nd.durable_off <- nd.safe_off;
  Hashtbl.reset nd.chunk_done;
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
       the cursor (on_ack), a diverged peer rebuilds (on_new_view) *)
    nd.sent_chunk.(j) <- nd.n_chunks;
    nd.sent_off.(j) <- nd.recv_off;
    nd.acked_off.(j) <- nd.recv_off;
    nd.ack_progress_at.(j) <- now
  done;
  broadcast t ~src:nd.id (New_view { view = nd.view; primary = nd.id; stream_len = nd.recv_off });
  schedule_tick t nd nd.gen

and adopt_view t nd ~view ~leader =
  if view > nd.view then begin
    let was_primary = is_primary nd.role in
    (match nd.role with
    | Primary ->
      (* deposed: void the shipping loop and all pending commit waits *)
      nd.gen <- nd.gen + 1;
      nd.waiters <- [];
      nd.role <- Follower
    | Follower | Candidate -> nd.role <- Follower
    | Down -> ());
    nd.view <- view;
    nd.voted_view <- max nd.voted_view view;
    nd.leader <- leader;
    nd.last_heard <- Engine.now t.eng;
    (* a deposed primary's tables hold transactions it executed itself,
       beyond what any stream replay can reconcile: resync from scratch *)
    if was_primary then rebuild_follower t nd
  end

and on_new_view t nd ~view ~primary ~stream_len =
  if view >= nd.view then begin
    adopt_view t nd ~view ~leader:primary;
    nd.leader <- primary;
    nd.last_heard <- Engine.now t.eng;
    (match nd.role with
    | Follower | Candidate ->
      nd.role <- Follower;
      if nd.safe_off > stream_len then
        (* applied beyond the new authority's history: cannot unapply *)
        rebuild_follower t nd
      else if nd.recv_off > stream_len then
        (* chunks past the new stream end were never quorum-acked and
           the new view will rewrite those offsets: drop them *)
        truncate_stream nd ~off:stream_len
    | Primary | Down -> ());
    send t ~src:nd.id ~dst:primary (Ack { view = nd.view; src = nd.id; off = nd.durable_off })
  end

and rebuild_follower t nd =
  Obs.Counter.incr t.c_rebuilds;
  nd.gen <- nd.gen + 1;
  reset_replica t nd;
  nd.chunks <- [||];
  nd.n_chunks <- 0;
  Hashtbl.reset nd.chunk_done;
  nd.recv_off <- 0;
  nd.durable_chunks <- 0;
  nd.durable_off <- 0;
  nd.safe_chunks <- 0;
  nd.safe_off <- 0;
  Hashtbl.reset nd.pulled;
  nd.waiters <- []
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
       (resolved to a stream-offset target by a pull), then for a
       majority durable up to the target. *)
    let wal = Db.wal nd.db in
    let gsn = Wal.flushed_gsn wal ~slot in
    pull t nd;
    let target = if Wal.durable_floor wal >= gsn then Some nd.recv_off else None in
    let satisfied () =
      match target with Some tg -> quorum_off t nd >= tg | None -> false
    in
    if not (satisfied ()) then begin
      Obs.Counter.incr t.c_quorum_waits;
      for j = 0 to t.n - 1 do
        if j <> nd.id then tick_ship t nd j
      done;
      if (not (satisfied ())) && Scheduler.in_fiber () then
        ignore
          (Scheduler.park ~deadline:Scheduler.Never ~urgency:Scheduler.High ~phase:Trace.Quorum_wait
             (fun wt ->
               nd.waiters <-
                 {
                   w_gsn = gsn;
                   w_target = target;
                   w_resume = (fun () -> ignore (Scheduler.wake_waiter wt Scheduler.Signalled));
                 }
                 :: nd.waiters))
    end
  | Follower | Candidate | Down ->
    (* The executing db is not an accepting primary: the process died
       or was deposed with this transaction in flight. Its commit must
       never be acknowledged — the client's server went silent — so
       park the fiber with no waker. *)
    if Scheduler.in_fiber () then
      ignore
        (Scheduler.park ~deadline:Scheduler.Never ~urgency:Scheduler.High ~phase:Trace.Quorum_wait
           (fun _ -> ()))

and schedule_tick t nd gen =
  Engine.schedule t.eng ~delay:t.gcfg.poll_interval_ns (fun () ->
      if (not t.stopped) && nd.gen = gen && is_primary nd.role then begin
        (* commits parked below the durable-GSN floor need the other
           writers' buffers on media before the floor can pass them *)
        if List.exists (fun w -> match w.w_target with None -> true | Some _ -> false) nd.waiters
        then Wal.flush_all (Db.wal nd.db) ~on_done:(fun () -> ());
        pull t nd;
        for j = 0 to t.n - 1 do
          if j <> nd.id then tick_ship t nd j
        done;
        wake_commit_waiters t nd;
        schedule_tick t nd gen
      end)

let rec schedule_monitor t nd =
  Engine.schedule t.eng ~delay:(t.gcfg.election_timeout_ns / 4) (fun () ->
      if not t.stopped then begin
        let now = Engine.now t.eng in
        (match nd.role with
        | Follower when now - nd.last_heard > follower_timeout t nd -> start_election t nd
        | Candidate when now - nd.election_started > nd.round_timeout -> start_election t nd
        | Follower | Candidate | Primary | Down -> ());
        schedule_monitor t nd
      end)

(* ------------------------------------------------------------------ *)
(* Oracle replay through the crash-recovery path *)

let replay_durable_prefix t ~node ~into =
  let nd = t.nodes.(node) in
  (* group the journaled chunk prefix per view and replay each primary
     generation in order, exactly like recovering from that WAL *)
  let views = Hashtbl.create 4 in
  for i = 0 to nd.safe_chunks - 1 do
    let c = nd.chunks.(i) in
    let v = view_of_file c.c_file in
    let l = Option.value ~default:[] (Hashtbl.find_opt views v) in
    Hashtbl.replace views v (c :: l)
  done;
  let ordered = Hashtbl.fold (fun v l acc -> (v, List.rev l) :: acc) views [] in
  let ordered = List.sort (fun (a, _) (b, _) -> Int.compare a b) ordered in
  List.iter
    (fun (v, cs) ->
      t.replay_seq <- t.replay_seq + 1;
      let dev =
        Device.create t.eng ~name:(Printf.sprintf "replay-v%d-%d" v t.replay_seq) Device.pm9a3
      in
      let store = Walstore.create dev in
      List.iter (fun c -> Walstore.append store ~file:c.c_file c.c_bytes ~on_durable:(fun () -> ())) cs;
      ignore (Db.replay_wal ~decide_in_doubt:t.decide into ~from:store))
    ordered

(* ------------------------------------------------------------------ *)
(* Construction and public surface *)

let create ?(group = default_config) ?(decide_in_doubt = fun (_ : Recovery.in_doubt) -> false)
    dbcfg ~ddl =
  if group.replicas < 1 then invalid_arg "Quorum.create: need at least one replica";
  let n = group.replicas + 1 in
  let eng = Engine.create () in
  let obs = Obs.create () in
  let chan =
    Netchan.create ~drop_p:group.drop_p ~seed:group.net_seed eng ~nodes:n
      ~latency_ns:group.latency_ns ~gbps:group.gbps
  in
  let t =
    {
      eng;
      dbcfg;
      gcfg = group;
      ddl;
      decide = decide_in_doubt;
      obs;
      chan;
      nodes = [||];
      n;
      majority = (n / 2) + 1;
      stopped = false;
      replay_seq = 0;
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
      match dbcfg.Config.faults with
      | Some fc -> Some { fc with Device.fault_seed = fc.Device.fault_seed + 101 + (7 * id) }
      | None -> None
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
      n_chunks = 0;
      chunk_done = Hashtbl.create 256;
      recv_off = 0;
      durable_chunks = 0;
      durable_off = 0;
      safe_chunks = 0;
      safe_off = 0;
      applied_chunks = 0;
      applied_as_of = 0;
      runs = fresh_runs ();
      parked = [];
      role = (if id = 0 then Primary else Follower);
      view = 1;
      voted_view = 1;
      seen_view = 1;
      votes = 0;
      leader = 0;
      last_heard = 0;
      election_started = 0;
      round_timeout = group.election_timeout_ns;
      rng = Prng.create ~seed:(group.net_seed + (977 * id) + 13);
      pulled = Hashtbl.create 16;
      sent_chunk = Array.make n 0;
      sent_off = Array.make n 0;
      acked_off = Array.make n 0;
      ack_progress_at = Array.make n 0;
      waiters = [];
    }
  in
  t.nodes <- Array.init n mk;
  Array.iter (fun nd -> install_barrier t nd) t.nodes;
  Obs.int_fn obs "quorum.view" (fun () ->
      Array.fold_left (fun a nd -> max a nd.view) 0 t.nodes);
  Obs.int_fn obs "quorum.net_dropped" (fun () -> Netchan.dropped chan);
  Obs.int_fn obs "quorum.net_msgs" (fun () -> Netchan.msgs chan);
  Obs.int_fn obs "quorum.net_bytes" (fun () -> Netchan.bytes chan);
  schedule_tick t t.nodes.(0) 0;
  Array.iter (fun nd -> schedule_monitor t nd) t.nodes;
  t

let engine t = t.eng
let obs t = t.obs
let nodes t = t.n
let majority t = t.majority
let view t = Array.fold_left (fun a nd -> max a nd.view) 0 t.nodes

let primary t =
  let best = ref None in
  Array.iter
    (fun nd ->
      match nd.role with
      | Primary -> (
        match !best with
        | Some b when t.nodes.(b).view >= nd.view -> ()
        | _ -> best := Some nd.id)
      | Follower | Candidate | Down -> ())
    t.nodes;
  !best

let db t ~node = t.nodes.(node).db
let primary_db t = Option.map (fun id -> t.nodes.(id).db) (primary t)
let is_alive t ~node = match t.nodes.(node).role with Down -> false | _ -> true
let durable_off t ~node = t.nodes.(node).durable_off

let stream_len t =
  match primary t with Some p -> t.nodes.(p).recv_off | None -> 0

let net_utilization t = Netchan.utilization t.chan
let mirror_utilization t ~node = Device.busy_fraction (Walstore.device t.nodes.(node).mirror)
let run_for t ~ns = Engine.run_until t.eng ~time:(Engine.now t.eng + ns)
let shutdown t = t.stopped <- true
let set_partitioned t ~node p = Netchan.set_partitioned t.chan ~node p

let kill t ~node =
  let nd = t.nodes.(node) in
  match nd.role with
  | Down -> ()
  | Primary | Follower | Candidate ->
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
  let bound = Option.value ~default:t.gcfg.staleness_bound_ns max_staleness_ns in
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
  truncate_stream nd ~off:nd.safe_off;
  nd.durable_chunks <- nd.n_chunks;
  nd.durable_off <- nd.safe_off;
  Hashtbl.reset nd.chunk_done;
  reset_replica t nd;
  apply_upto nd ~upto:nd.safe_chunks;
  nd.role <- Follower;
  nd.votes <- 0;
  nd.last_heard <- Engine.now t.eng
