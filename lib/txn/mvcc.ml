module Value = Phoebe_storage.Value
module Scheduler = Phoebe_runtime.Scheduler
module Component = Phoebe_sim.Component
module Cost = Phoebe_sim.Cost

let visible_version ~xid ~snapshot ~current ~deleted_in_page ~head =
  let c = Scheduler.current_cost () in
  Scheduler.charge Component.Mvcc c.Cost.visibility_check;
  match head with
  | None ->
    (* no twin table / null or reclaimed pointer: the in-page tuple is
       the globally visible version (Algorithm 1 lines 1-4) *)
    if deleted_in_page then None else Some current
  | Some header ->
    if header.Undo.ets <= snapshot || Int.equal header.Undo.ets xid then
      (* the newest version was committed before our snapshot, or is our
         own write: the in-page state is what we see *)
      if deleted_in_page then None else Some current
    else begin
      (* walk the chain, assembling before-image deltas (lines 5-9)
         directly into [current]: the caller owns the buffer (a Tupbuf
         scratch row or a fresh decode) and the in-page tuple is never
         page-backed storage, so mutating in place is safe and saves a
         per-read copy (DESIGN.md §4h) *)
      let tuple = current in
      let exists = ref true in
      let rec walk cur =
        match cur with
        | None ->
          (* chain ended (oldest log reclaimed had sts = 0): the fully
             assembled image is the visible one *)
          if !exists then Some tuple else None
        | Some (u : Undo.t) ->
          if u.Undo.reclaimed then (if !exists then Some tuple else None)
          else begin
            Scheduler.charge Component.Mvcc c.Cost.undo_apply;
            (match u.Undo.kind with
            | Undo.Created -> exists := false
            | Undo.Deleted before ->
              Array.blit before 0 tuple 0 (Array.length before);
              exists := true
            | Undo.Updated cols ->
              Array.iter (fun (col, v) -> tuple.(col) <- v) cols;
              exists := true);
            if u.Undo.sts <= snapshot then (if !exists then Some tuple else None)
            else walk u.Undo.next
          end
      in
      walk (Some header)
    end

type write_check = Write_ok | Write_conflict of int | Write_wait of int

let check_write ~xid ~snapshot ~head =
  Scheduler.charge Component.Mvcc (Scheduler.current_cost ()).Cost.visibility_check;
  match head with
  | None -> Write_ok
  | Some (header : Undo.t) ->
    if Int.equal header.Undo.ets xid then Write_ok
    else if Clock.is_xid header.Undo.ets then Write_wait header.Undo.ets
    else if header.Undo.ets > snapshot then Write_conflict header.Undo.ets
    else Write_ok
