module Value = Phoebe_storage.Value
module Scheduler = Phoebe_runtime.Scheduler
module Component = Phoebe_sim.Component
module Cost = Phoebe_sim.Cost

let rec apply_cols (tuple : Value.t array) (cols : (int * Value.t) array) i =
  if i < Array.length cols then begin
    let col, v = cols.(i) in
    tuple.(col) <- v;
    apply_cols tuple cols (i + 1)
  end

(* Walk the chain, assembling before-image deltas (lines 5-9) directly
   into [tuple]: the caller owns the buffer (a table's per-slot ring row or
   a fresh decode) and the in-page tuple is never page-backed storage, so
   mutating in place is safe and saves a per-read copy (DESIGN.md §4h).
   [exists] is whether the image assembled so far is a live row. *)
let rec assemble (c : Cost.t) ~snapshot tuple exists = function
  | None ->
    (* chain ended (oldest log reclaimed had sts = 0): the fully
       assembled image is the visible one *)
    exists
  | Some (u : Undo.t) ->
    if u.Undo.reclaimed then exists
    else begin
      Scheduler.charge Component.Mvcc c.Cost.undo_apply;
      let exists =
        match u.Undo.kind with
        | Undo.Created -> false
        | Undo.Deleted before ->
          Array.blit before 0 tuple 0 (Array.length before);
          true
        | Undo.Updated cols ->
          apply_cols tuple cols 0;
          true
      in
      if u.Undo.sts <= snapshot then exists else assemble c ~snapshot tuple exists u.Undo.next
    end

let visible_version ~xid ~snapshot ~current ~deleted_in_page ~head =
  let c = Scheduler.current_cost () in
  Scheduler.charge Component.Mvcc c.Cost.visibility_check;
  match head with
  | None ->
    (* no twin table / null or reclaimed pointer: the in-page tuple is
       the globally visible version (Algorithm 1 lines 1-4) *)
    not deleted_in_page
  | Some header ->
    if header.Undo.ets <= snapshot || Int.equal header.Undo.ets xid then
      (* the newest version was committed before our snapshot, or is our
         own write: the in-page state is what we see *)
      not deleted_in_page
    else assemble c ~snapshot current true head

type write_check = Write_ok | Write_conflict of int | Write_wait of int

let check_write ~xid ~snapshot ~head =
  Scheduler.charge Component.Mvcc (Scheduler.current_cost ()).Cost.visibility_check;
  match head with
  | None -> Write_ok
  | Some (header : Undo.t) ->
    if Int.equal header.Undo.ets xid then Write_ok
    (* lint: allow hot-path-alloc — a write conflict: contended rows only *)
    else if Clock.is_xid header.Undo.ets then Write_wait header.Undo.ets
    (* lint: allow hot-path-alloc — a write conflict: contended rows only *)
    else if header.Undo.ets > snapshot then Write_conflict header.Undo.ets
    else Write_ok
