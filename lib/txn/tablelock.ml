module Waitq = Phoebe_runtime.Scheduler.Waitq
module Int_tbl = Phoebe_util.Int_tbl

type mode = Shared | Exclusive

type t = {
  mutable x_holder : int;  (* xid, 0 = none *)
  shared : unit Int_tbl.t;  (* xid set *)
  q : Waitq.q;
}

let create () = { x_holder = 0; shared = Int_tbl.create 8; q = Waitq.create () }

let exclusive_holder t = t.x_holder

let is_free_for t mode ~xid =
  match mode with
  | Shared -> Int.equal t.x_holder 0 || Int.equal t.x_holder xid
  | Exclusive ->
    (Int.equal t.x_holder 0 || Int.equal t.x_holder xid)
    (* lint: allow hot-path-alloc — exclusive mode: DDL only, never a DML statement *)
    && Int_tbl.fold (fun holder () ok -> ok && Int.equal holder xid) t.shared true

let add_holder t mode ~xid =
  match mode with
  | Shared -> Int_tbl.replace t.shared xid ()
  | Exclusive ->
    t.x_holder <- xid;
    Int_tbl.remove t.shared xid

let remove_holder t ~xid =
  if Int.equal t.x_holder xid then t.x_holder <- 0;
  Int_tbl.remove t.shared xid;
  Waitq.signal_all t.q

let held_by t ~xid =
  if Int.equal t.x_holder xid then Some Exclusive
  else if Int_tbl.mem t.shared xid then Some Shared
  else None

let wait ?deadline t = Waitq.wait_r ?deadline t.q
let waiter_count t = Waitq.length t.q
