module Sanitize = Phoebe_sanitize.Sanitize

(* The event queue is a binary min-heap over (time, seq) kept in three
   parallel arrays, so scheduling an event stores two ints and the
   caller's closure and allocates nothing else: no event record, no
   option from a peek or pop. Slots at or past [size] hold [noop], so a
   fired or cleared event's closure is unreachable at once. *)
type t = {
  mutable now : int;
  mutable seq : int;
  mutable processed : int;
  mutable size : int;
  mutable times : int array;
  mutable seqs : int array;
  mutable actions : (unit -> unit) array;
}

let noop () = ()
let initial_capacity = 256

let create () =
  {
    now = 0;
    seq = 0;
    processed = 0;
    size = 0;
    times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    actions = Array.make initial_capacity noop;
  }

let now t = t.now

(* Does the event at [time, seq] order before the one in slot [j]? *)
let[@inline] before t time seq j =
  let tj = t.times.(j) in
  time < tj || (time = tj && seq < t.seqs.(j))

let[@inline] place t i time seq action =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.actions.(i) <- action

let grow t =
  let cap = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.actions <- extend t.actions noop

(* Move the hole at [i] up until the new event fits, then fill it. *)
let rec sift_up t i time seq action =
  if i = 0 then place t 0 time seq action
  else
    let p = (i - 1) / 2 in
    if before t time seq p then begin
      place t i t.times.(p) t.seqs.(p) t.actions.(p);
      sift_up t p time seq action
    end
    else place t i time seq action

(* Move the hole at [i] down until the event [time, seq, action] fits. *)
let rec sift_down t i time seq action =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i time seq action
  else
    let r = l + 1 in
    let c = if r < t.size && before t t.times.(r) t.seqs.(r) l then r else l in
    if before t time seq c then place t i time seq action
    else begin
      place t i t.times.(c) t.seqs.(c) t.actions.(c);
      sift_down t c time seq action
    end

(* lint: hot-path *)
let schedule_at t ~time action =
  let time = if time < t.now then t.now else time in
  t.seq <- t.seq + 1;
  (* lint: allow hot-path-alloc — the queue doubles when full, amortised to nothing per event *)
  if t.size = Array.length t.times then grow t;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) time t.seq action

let schedule t ~delay action = schedule_at t ~time:(t.now + if delay < 0 then 0 else delay) action

(* Pop the earliest event and run it. The queue must be non-empty. *)
(* lint: hot-path *)
let fire t =
  let time = t.times.(0) and seq = t.seqs.(0) and action = t.actions.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t 0 t.times.(last) t.seqs.(last) t.actions.(last);
  t.actions.(last) <- noop;
  t.now <- time;
  t.processed <- t.processed + 1;
  if Sanitize.on () then Sanitize.digest_event time seq;
  action ()

let rec run t =
  if t.size > 0 then begin
    fire t;
    run t
  end

let rec run_until t ~time =
  if t.size > 0 && t.times.(0) <= time then begin
    fire t;
    run_until t ~time
  end
  else if t.now < time then t.now <- time

let clear t =
  Array.fill t.actions 0 t.size noop;
  t.size <- 0

let pending t = t.size
let processed t = t.processed
