module Scheduler = Phoebe_runtime.Scheduler
module Component = Phoebe_sim.Component
module Cost = Phoebe_sim.Cost
module Sanitize = Phoebe_sanitize.Sanitize

type mode = Free | Shared of int | Exclusive

(* [uid] is process-unique (the sanitizer's order-graph node); [tag] is
   a display label — buffer-frame latches carry their page id, anything
   else a negative unique. Allocating the uid eagerly keeps [create]
   branch-free; a counter bump is pure and schedule-neutral. *)
type t = { mutable lversion : int; mutable mode : mode; uid : int; mutable tag : int }

exception Timeout

let create () =
  let uid = Sanitize.next_uid () in
  { lversion = 0; mode = Free; uid; tag = -uid }

let set_tag t tag = t.tag <- tag
let uid t = t.uid

(* Register only under the sanitizer: with the plane off the class
   table must stay empty so an off-run has zero side state. *)
let set_class t name = if Sanitize.on () then Sanitize.latch_class ~uid:t.uid ~name

let version t = t.lversion
let is_exclusive t = t.mode = Exclusive

(* Latch waits keep the charge + high-urgency-yield spin of §7.1 (they
   are short and parking them would perturb instruction accounting),
   but every turn goes through the wait core's cancellable spin step:
   when the fiber's transaction deadline has passed, the acquisition
   raises {!Timeout} instead of spinning forever behind a stalled
   holder. With no deadline set this is the original spin exactly. *)
let spin () =
  let c = Scheduler.current_cost () in
  Scheduler.charge Component.Latch c.Cost.latch_acquire;
  match Scheduler.spin_yield Scheduler.High with
  | Scheduler.Signalled -> ()
  | Scheduler.Timed_out -> raise Timeout

let rec optimistic_read_with t f a b =
  let c = Scheduler.current_cost () in
  if t.mode = Exclusive then begin
    spin ();
    optimistic_read_with t f a b
  end
  else begin
    let v0 = t.lversion in
    let result = f a b in
    Scheduler.charge Component.Latch c.Cost.olc_validate;
    if t.mode <> Exclusive && t.lversion = v0 then result
    else begin
      Scheduler.charge Component.Latch c.Cost.olc_restart;
      (match Scheduler.spin_yield Scheduler.High with
      | Scheduler.Signalled -> ()
      | Scheduler.Timed_out -> raise Timeout);
      optimistic_read_with t f a b
    end
  end

let apply_unit f () = f ()
let optimistic_read t f = optimistic_read_with t apply_unit f ()

(* State transitions happen before any charge: a charge suspends the
   fiber in virtual time, and the acquisition must be atomic w.r.t.
   fibers interleaving on other simulated cores. *)
let rec raw_acquire_shared t =
  match t.mode with
  | Free ->
    t.mode <- Shared 1;
    Scheduler.charge Component.Latch (Scheduler.current_cost ()).Cost.latch_acquire
  | Shared n ->
    t.mode <- Shared (n + 1);
    Scheduler.charge Component.Latch (Scheduler.current_cost ()).Cost.latch_acquire
  | Exclusive ->
    spin ();
    raw_acquire_shared t

let rec raw_acquire_exclusive t =
  match t.mode with
  | Free ->
    t.mode <- Exclusive;
    Scheduler.charge Component.Latch (Scheduler.current_cost ()).Cost.latch_acquire
  | Shared _ | Exclusive ->
    spin ();
    raw_acquire_exclusive t

(* Sanitizer instrumentation around an acquisition. Wait intent is
   declared before the first spin turn, so an order inversion is
   reported even when the acquisition would spin forever; the wait
   marker is cleared on success AND on {!Timeout}, so a deadline abort
   never leaves phantom wait state behind. The held stack is pushed
   only on success — a timed-out waiter holds nothing. *)
let sanitized t ~exclusive raw =
  let fiber = Scheduler.current_fiber_id () in
  Sanitize.latch_wait ~fiber ~uid:t.uid ~tag:t.tag ~exclusive;
  (match raw t with
  | () -> Sanitize.latch_wait_done ~fiber
  | exception e ->
    Sanitize.latch_wait_done ~fiber;
    raise e);
  Sanitize.latch_acquired ~fiber ~uid:t.uid ~tag:t.tag ~exclusive

let acquire_shared t =
  if Sanitize.on () then sanitized t ~exclusive:false raw_acquire_shared
  else raw_acquire_shared t

let acquire_exclusive t =
  if Sanitize.on () then sanitized t ~exclusive:true raw_acquire_exclusive
  else raw_acquire_exclusive t

let release_shared t =
  (match t.mode with
  | Shared 1 -> t.mode <- Free
  | Shared n when n > 1 -> t.mode <- Shared (n - 1)
  | _ -> invalid_arg "Latch.release_shared: not share-latched");
  if Sanitize.on () then
    Sanitize.latch_released ~fiber:(Scheduler.current_fiber_id ()) ~uid:t.uid

let release_exclusive t =
  if t.mode <> Exclusive then invalid_arg "Latch.release_exclusive: not exclusively latched";
  t.lversion <- t.lversion + 1;
  t.mode <- Free;
  if Sanitize.on () then
    Sanitize.latch_released ~fiber:(Scheduler.current_fiber_id ()) ~uid:t.uid

let with_shared t f =
  acquire_shared t;
  match f () with
  | r ->
    release_shared t;
    r
  | exception e ->
    release_shared t;
    raise e

let with_exclusive t f =
  acquire_exclusive t;
  match f () with
  | r ->
    release_exclusive t;
    r
  | exception e ->
    release_exclusive t;
    raise e
