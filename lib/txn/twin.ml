module Waitq = Phoebe_runtime.Scheduler.Waitq
module Int_tbl = Phoebe_util.Int_tbl

type entry = {
  mutable head : Undo.t option;
  mutable lock_xid : int;
  lock_waiters : Waitq.q;
  mutable wgsn : int;
  mutable wslot : int;
}

type t = { entries : entry Int_tbl.t; mutable max_xid : int }

let create () = { entries = Int_tbl.create 16; max_xid = 0 }

let find t ~rid = Int_tbl.find_opt t.entries rid

let find_or_add t ~rid =
  match Int_tbl.find t.entries rid with
  | e -> e
  | exception Not_found ->
    (* lint: allow hot-path-alloc — a row's first write since its entry was swept *)
    let e = { head = None; lock_xid = 0; lock_waiters = Waitq.create (); wgsn = 0; wslot = -1 } in
    Int_tbl.add t.entries rid e;
    e

let iter t f = Int_tbl.iter f t.entries
let max_modifier_xid t = t.max_xid
let note_modifier t ~xid = if xid > t.max_xid then t.max_xid <- xid
let entry_count t = Int_tbl.length t.entries

(* returns the entry's own [Some], never a fresh one: visibility reads
   this on every probe of a versioned row *)
let chain_head entry =
  match entry.head with
  | Some u as head when not u.Undo.reclaimed -> head
  | _ -> None

let row_head t ~rid =
  match Int_tbl.find t.entries rid with e -> chain_head e | exception Not_found -> None

let sweep ?on_dead t =
  let dead =
    Int_tbl.fold
      (fun rid e acc -> if chain_head e = None && Int.equal e.lock_xid 0 then rid :: acc else acc)
      t.entries []
  in
  List.iter
    (fun rid ->
      (match on_dead with
      | Some f -> (
        match (Int_tbl.find t.entries rid).head with
        | Some u when u.Undo.reclaimed -> f u
        | _ -> ())
      | None -> ());
      Int_tbl.remove t.entries rid)
    dead
