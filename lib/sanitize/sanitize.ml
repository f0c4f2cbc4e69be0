module Phoebe_error = Phoebe_util.Phoebe_error

type rule =
  | Lock_order
  | Park_latched
  | Latch_state
  | Frame_state
  | Wal_mono
  | Undo_chain
  | Latch_leak

let rule_label = function
  | Lock_order -> "lock_order"
  | Park_latched -> "park_latched"
  | Latch_state -> "latch_state"
  | Frame_state -> "frame_state"
  | Wal_mono -> "wal_mono"
  | Undo_chain -> "undo_chain"
  | Latch_leak -> "latch_leak"

let all_rules =
  [ Lock_order; Park_latched; Latch_state; Frame_state; Wal_mono; Undo_chain; Latch_leak ]

let rule_index = function
  | Lock_order -> 0
  | Park_latched -> 1
  | Latch_state -> 2
  | Frame_state -> 3
  | Wal_mono -> 4
  | Undo_chain -> 5
  | Latch_leak -> 6

(* ------------------------------------------------------------------ *)
(* Global switch + findings *)

let enabled = ref false
let findings_rev : (rule * string) list ref = ref []
let counts = Array.make (List.length all_rules) 0
let uid_counter = ref 0

let next_uid () =
  incr uid_counter;
  !uid_counter

let on () = !enabled
let findings () = List.rev !findings_rev
let total_findings () = List.fold_left ( + ) 0 (Array.to_list counts)
let finding_counts () = List.map (fun r -> (rule_label r, counts.(rule_index r))) all_rules

(* A latch the detector tracks: process-unique [uid], display [tag]
   (the page id for buffer-frame latches, a negative unique otherwise). *)
type held = { huid : int; htag : int; hexcl : bool }

type fstate = {
  mutable held : held list;  (** newest first *)
  mutable tuple_locks : int;
  mutable table_locks : int;
  mutable waiting : (int * int) option;  (** (uid, tag) being spun on *)
}

let fibers : (int, fstate) Hashtbl.t = Hashtbl.create 64

(* Acquisition-order graph over latch uids: [succs] adjacency, [edges]
   the witness stack recorded when each edge was first seen. *)
let succs : (int, int list ref) Hashtbl.t = Hashtbl.create 256
let edges : (int * int, string) Hashtbl.t = Hashtbl.create 256

(* Static latch classes (declaring-unit.field, e.g. "bufmgr.flatch"),
   registered by [Latch.set_class] at create sites. The table maps code
   structure, not execution, so [reset] leaves it alone — uids are
   process-unique, stale entries are unreachable. It gives the observed
   order graph the same vocabulary as phoebe_check's static one, so the
   observed graph can be checked to be a subset of it. *)
let classes : (int, string) Hashtbl.t = Hashtbl.create 64

let latch_class ~uid ~name = Hashtbl.replace classes uid name

let order_class_edges () =
  Hashtbl.fold
    (fun (from_uid, to_uid) _ acc ->
      match (Hashtbl.find_opt classes from_uid, Hashtbl.find_opt classes to_uid) with
      | Some a, Some b -> (a, b) :: acc
      | _ -> acc)
    edges []
  |> List.sort_uniq (fun (a, b) (c, d) ->
         match String.compare a c with 0 -> String.compare b d | n -> n)

(* Frame-residency mirror, (scope, page id) -> the uid of the page's
   resident frame, and per-(scope, file) WAL watermarks. *)
let frames : (int * int, int) Hashtbl.t = Hashtbl.create 1024
let wal_lsns : (int * int, int) Hashtbl.t = Hashtbl.create 64
let wal_durables : (int * int, int) Hashtbl.t = Hashtbl.create 64
let digest_seed = 0x3f29ce484222325
let digest = ref digest_seed

let reset_state () =
  findings_rev := [];
  Array.fill counts 0 (Array.length counts) 0;
  Hashtbl.reset fibers;
  Hashtbl.reset succs;
  Hashtbl.reset edges;
  Hashtbl.reset frames;
  Hashtbl.reset wal_lsns;
  Hashtbl.reset wal_durables;
  digest := digest_seed

let reset () = reset_state ()

let enable () =
  enabled := true;
  reset_state ()

let disable () =
  enabled := false;
  reset_state ()

let add_finding rule msg =
  counts.(rule_index rule) <- counts.(rule_index rule) + 1;
  findings_rev := (rule, msg) :: !findings_rev

let violation rule fmt =
  Printf.ksprintf
    (fun msg ->
      add_finding rule msg;
      (raise (Phoebe_error.Bug { subsystem = "sanitize." ^ rule_label rule; context = msg }) : unit))
    fmt

let record rule fmt = Printf.ksprintf (fun msg -> add_finding rule msg) fmt

(* ------------------------------------------------------------------ *)
(* Held-resource tracking + lock-order detector *)

let fstate_of fiber =
  match Hashtbl.find_opt fibers fiber with
  | Some s -> s
  | None ->
    let s = { held = []; tuple_locks = 0; table_locks = 0; waiting = None } in
    Hashtbl.add fibers fiber s;
    s

let describe_held s =
  let latches =
    String.concat ","
      (List.rev_map
         (fun h ->
           Printf.sprintf "latch#%d(%s%s)" h.huid
             (if h.htag >= 0 then "page " ^ string_of_int h.htag else "anon")
             (if h.hexcl then "" else ",shared"))
         s.held)
  in
  Printf.sprintf "[%s] tuple_locks=%d table_locks=%d" latches s.tuple_locks s.table_locks

(* Is [target] reachable from [from] in the order graph? *)
let reachable ~from ~target =
  let seen = Hashtbl.create 16 in
  let rec go u =
    Int.equal u target
    || (not (Hashtbl.mem seen u))
       && begin
            Hashtbl.add seen u ();
            match Hashtbl.find_opt succs u with
            | None -> false
            | Some l -> List.exists go !l
          end
  in
  go from

let add_edge ~fiber s ~from_uid ~from_tag ~uid ~tag =
  if not (Hashtbl.mem edges (from_uid, uid)) then begin
    (* Cycle check before inserting: a path uid -> ... -> from_uid means
       some other code path takes these latches in the opposite order. *)
    if reachable ~from:uid ~target:from_uid then begin
      let other_witness =
        match Hashtbl.find_opt edges (uid, from_uid) with
        | Some w -> w
        | None -> "(indirect: via intermediate latches)"
      in
      violation Lock_order
        "latch order inversion: fiber %d acquiring latch#%d(tag %d) while holding latch#%d(tag \
         %d); held %s; opposite-order witness: %s"
        fiber uid tag from_uid from_tag (describe_held s) other_witness
    end;
    Hashtbl.replace edges (from_uid, uid)
      (Printf.sprintf "fiber %d acquired latch#%d(tag %d) then latch#%d(tag %d); held %s" fiber
         from_uid from_tag uid tag (describe_held s));
    let l =
      match Hashtbl.find_opt succs from_uid with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.add succs from_uid l;
        l
    in
    l := uid :: !l
  end

let latch_wait ~fiber ~uid ~tag ~exclusive =
  let s = fstate_of fiber in
  (match s.waiting with
  | Some (wuid, wtag) ->
    violation Latch_state
      "fiber %d started waiting on latch#%d(tag %d) with phantom wait state on latch#%d(tag %d)"
      fiber uid tag wuid wtag
  | None -> ());
  (* Edges (and the cycle check) before the wait marker: a raised order
     violation must not leave phantom wait state behind. *)
  if exclusive then
    List.iter
      (fun h -> if h.hexcl then add_edge ~fiber s ~from_uid:h.huid ~from_tag:h.htag ~uid ~tag)
      s.held;
  s.waiting <- Some (uid, tag)

let latch_wait_done ~fiber =
  let s = fstate_of fiber in
  s.waiting <- None

let latch_acquired ~fiber ~uid ~tag ~exclusive =
  let s = fstate_of fiber in
  s.held <- { huid = uid; htag = tag; hexcl = exclusive } :: s.held

let latch_released ~fiber ~uid =
  let s = fstate_of fiber in
  let rec remove = function
    | [] ->
      violation Latch_state "fiber %d released latch#%d it does not hold; held %s" fiber uid
        (describe_held s);
      []
    | h :: rest -> if Int.equal h.huid uid then rest else h :: remove rest
  in
  s.held <- remove s.held

let lock_acquired ~fiber ~table =
  let s = fstate_of fiber in
  if table then s.table_locks <- s.table_locks + 1 else s.tuple_locks <- s.tuple_locks + 1

let lock_released ~fiber ~table =
  let s = fstate_of fiber in
  if table then s.table_locks <- max 0 (s.table_locks - 1)
  else s.tuple_locks <- max 0 (s.tuple_locks - 1)

let locks_released_all ~fiber =
  match Hashtbl.find_opt fibers fiber with
  | None -> ()
  | Some s ->
    s.tuple_locks <- 0;
    s.table_locks <- 0

let on_park ~fiber ~exempt ~label =
  if not exempt then begin
    match Hashtbl.find_opt fibers fiber with
    | Some s when s.held <> [] ->
      violation Park_latched "fiber %d parked (%s) while holding latches; held %s" fiber label
        (describe_held s)
    | _ -> ()
  end

let on_fiber_done ~fiber =
  match Hashtbl.find_opt fibers fiber with
  | None -> ()
  | Some s ->
    if s.held <> [] then
      record Latch_leak "fiber %d completed still holding latches; held %s" fiber
        (describe_held s);
    Hashtbl.remove fibers fiber

let held_latches ~fiber =
  match Hashtbl.find_opt fibers fiber with None -> 0 | Some s -> List.length s.held

let is_waiting ~fiber =
  match Hashtbl.find_opt fibers fiber with None -> false | Some s -> s.waiting <> None

(* ------------------------------------------------------------------ *)
(* Buffer-frame state machine *)

let frame_alloc ~scope ~page_id ~frame =
  if Hashtbl.mem frames (scope, page_id) then
    violation Frame_state "page %d allocated but already resident" page_id;
  Hashtbl.replace frames (scope, page_id) frame

let frame_fault_in ~scope ~page_id ~frame =
  if Hashtbl.mem frames (scope, page_id) then
    violation Frame_state "page %d faulted in while already resident (double fault-in)" page_id;
  Hashtbl.replace frames (scope, page_id) frame

(* A page id outlives its frames: once a page is evicted or dropped, a
   later fault-in gives it a new frame. A hook must come from the page's
   resident frame; one from a frame the page has left is a stale frame
   acting on its successor's page. *)
let check_resident ~scope ~page_id ~frame what =
  match Hashtbl.find_opt frames (scope, page_id) with
  | None -> violation Frame_state "page %d %s while not resident" page_id what
  | Some resident when resident <> frame ->
    violation Frame_state "page %d %s by stale frame #%d (its resident frame is #%d)" page_id what
      frame resident
  | Some _ -> ()

let frame_demote ~scope ~page_id ~frame ~hot ~pinned =
  check_resident ~scope ~page_id ~frame "demoted to cooling";
  if not hot then violation Frame_state "page %d demoted to cooling from a non-hot state" page_id;
  if pinned > 0 then
    violation Frame_state "page %d demoted to cooling while pinned (%d pins)" page_id pinned

let frame_clean ~scope ~page_id ~frame = check_resident ~scope ~page_id ~frame "marked clean"

let frame_evict ~scope ~page_id ~frame ~dirty ~pinned ~cooling =
  if dirty then violation Frame_state "page %d evicted while dirty" page_id;
  if pinned > 0 then violation Frame_state "page %d evicted while pinned (%d pins)" page_id pinned;
  if not cooling then violation Frame_state "page %d evicted straight from the hot state" page_id;
  check_resident ~scope ~page_id ~frame "evicted";
  Hashtbl.remove frames (scope, page_id)

let frame_drop ~scope ~page_id ~frame =
  check_resident ~scope ~page_id ~frame "dropped";
  Hashtbl.remove frames (scope, page_id)

(* ------------------------------------------------------------------ *)
(* WAL monotonicity *)

let wal_append ~scope ~file ~lsn =
  (match Hashtbl.find_opt wal_lsns (scope, file) with
  | Some last when lsn <= last ->
    violation Wal_mono "wal file %d: appended LSN %d after LSN %d (not strictly increasing)" file
      lsn last
  | _ -> ());
  Hashtbl.replace wal_lsns (scope, file) lsn

let wal_frontier ~scope ~file ~durable ~appended =
  if durable > appended then
    violation Wal_mono "wal file %d: durable frontier %d past appended bytes %d" file durable
      appended;
  (match Hashtbl.find_opt wal_durables (scope, file) with
  | Some last when durable < last ->
    violation Wal_mono "wal file %d: durable frontier moved backwards (%d after %d)" file durable
      last
  | _ -> ());
  Hashtbl.replace wal_durables (scope, file) durable

let wal_truncate ~scope ~file ~durable =
  (match Hashtbl.find_opt wal_durables (scope, file) with
  | Some last when durable < last ->
    violation Wal_mono "wal file %d: truncation cut below the durable frontier (%d after %d)" file
      durable last
  | _ -> ());
  Hashtbl.replace wal_durables (scope, file) durable

let drop_scope tbl scope =
  let dead =
    Hashtbl.fold (fun (s, file) _ acc -> if Int.equal s scope then file :: acc else acc) tbl []
  in
  List.iter (fun file -> Hashtbl.remove tbl (scope, file)) dead

let wal_crash ~scope = drop_scope wal_lsns scope

(* ------------------------------------------------------------------ *)
(* Replay digest: FNV-1a over each event's (time, seq). *)

let fnv_prime = 0x100000001b3

let digest_event time seq =
  let h = ((!digest lxor time) * fnv_prime) land max_int in
  digest := ((h lxor seq) * fnv_prime) land max_int

let replay_digest () = !digest
