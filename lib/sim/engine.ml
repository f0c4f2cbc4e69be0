module Sanitize = Phoebe_sanitize.Sanitize

type event = { time : int; seq : int; action : unit -> unit }

type t = { mutable now : int; mutable seq : int; mutable processed : int; heap : event Phoebe_util.Binheap.t }

let compare_event a b =
  if a.time <> b.time then Int.compare a.time b.time else Int.compare a.seq b.seq

let create () = { now = 0; seq = 0; processed = 0; heap = Phoebe_util.Binheap.create ~cmp:compare_event }

let now t = t.now

let schedule_at t ~time action =
  let time = if time < t.now then t.now else time in
  t.seq <- t.seq + 1;
  Phoebe_util.Binheap.push t.heap { time; seq = t.seq; action }

let schedule t ~delay action = schedule_at t ~time:(t.now + if delay < 0 then 0 else delay) action

let run t =
  let rec loop () =
    match Phoebe_util.Binheap.pop t.heap with
    | None -> ()
    | Some ev ->
      t.now <- ev.time;
      t.processed <- t.processed + 1;
      if Sanitize.on () then Sanitize.digest_event ev.time ev.seq;
      ev.action ();
      loop ()
  in
  loop ()

let run_until t ~time =
  let rec loop () =
    match Phoebe_util.Binheap.peek t.heap with
    | Some ev when ev.time <= time ->
      ignore (Phoebe_util.Binheap.pop t.heap);
      t.now <- ev.time;
      t.processed <- t.processed + 1;
      if Sanitize.on () then Sanitize.digest_event ev.time ev.seq;
      ev.action ();
      loop ()
    | _ -> if t.now < time then t.now <- time
  in
  loop ()

let clear t = Phoebe_util.Binheap.clear t.heap
let pending t = Phoebe_util.Binheap.length t.heap
let processed t = t.processed
