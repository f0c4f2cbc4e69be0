(* Fixture: a park reachable three calls deep under an exclusively held
   latch — phoebe_check must report [park-while-latched] in [update]
   with the full chain — a network round trip parked under the same
   latch, which must be reported too, and an I/O wait under it, which
   is exempt by design (a latched page-fault holder suspends on io_wait;
   see latch.mli). *)

module Latch = Phoebe_storage.Latch
module Scheduler = Phoebe_runtime.Scheduler
module Trace = Phoebe_obs.Trace

type t = { guard : Latch.t; mutable v : int }

let make () = { guard = Latch.create (); v = 0 }

(* chain bottom: a genuine non-I/O suspension *)
let wait_for_signal () =
  ignore (Scheduler.park ~urgency:Scheduler.Low ~phase:Trace.Lock_wait (fun _w -> ()))

let level2 () = wait_for_signal ()
let level1 () = level2 ()

let update t =
  Latch.with_exclusive t.guard (fun () ->
      t.v <- t.v + 1;
      level1 ())

(* exempt: device I/O while latched is the one legal suspension *)
let fault_under_latch t =
  Latch.with_exclusive t.guard (fun () -> Scheduler.io_wait (fun resume -> resume ()))

(* not exempt: only device I/O may hold a latch across a park *)
let remote_under_latch t =
  Latch.with_exclusive t.guard (fun () ->
      ignore (Scheduler.park ~urgency:Scheduler.High ~phase:Trace.Remote_wait (fun _w -> ())))
