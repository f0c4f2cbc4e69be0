type t = {
  engine : Engine.t;
  name : string;
  mutable next_free : int;
  mutable busy_ns : int;
}

let create engine ~name = { engine; name; next_free = 0; busy_ns = 0 }

let acquire_for t ~hold_ns =
  let now = Engine.now t.engine in
  let start = if t.next_free > now then t.next_free else now in
  let finish = start + hold_ns in
  t.next_free <- finish;
  t.busy_ns <- t.busy_ns + hold_ns;
  finish

let busy_until t = t.next_free

let utilisation t ~since =
  let now = Engine.now t.engine in
  let span = now - since in
  if span <= 0 then 0.0 else Float.min 1.0 (float_of_int t.busy_ns /. float_of_int span)
