type t = {
  eng : Engine.t;
  nodes : int;
  latency_ns : int;
  ns_per_byte : float;
  next_free : int array;  (* per directed link: earliest ns the NIC can start serializing *)
  busy_ns : int array;  (* per directed link: total serialization time charged *)
  created_at : int;
  drop_p : float;
  rng : Phoebe_util.Prng.t;
  partitioned : bool array;
  mutable msgs : int;
  mutable bytes : int;
  mutable dropped : int;
}

let create ?(drop_p = 0.0) ?(seed = 0) eng ~nodes ~latency_ns ~gbps =
  if nodes <= 0 then invalid_arg "Netchan.create: nodes must be positive";
  if gbps <= 0.0 then invalid_arg "Netchan.create: gbps must be positive";
  {
    eng;
    nodes;
    latency_ns = max 0 latency_ns;
    (* gbps is the usual marketing gigabits/s: bytes/ns = gbps / 8 *)
    ns_per_byte = 8.0 /. gbps;
    next_free = Array.make (nodes * nodes) 0;
    busy_ns = Array.make (nodes * nodes) 0;
    created_at = Engine.now eng;
    drop_p;
    rng = Phoebe_util.Prng.create ~seed;
    partitioned = Array.make nodes false;
    msgs = 0;
    bytes = 0;
    dropped = 0;
  }

let set_partitioned t ~node v = t.partitioned.(node) <- v

let send t ~src ~dst ~bytes f =
  if src < 0 || src >= t.nodes || dst < 0 || dst >= t.nodes then
    invalid_arg "Netchan.send: node id out of range";
  (* a partitioned node neither sends nor receives; independently, a
     lossy fabric drops each message with probability [drop_p] — both
     show up as silence, which is exactly what timeouts are for. The
     loss draw is taken only for messages a partition did not stop. *)
  if
    t.partitioned.(src) || t.partitioned.(dst)
    || (t.drop_p > 0.0 && Phoebe_util.Prng.float t.rng 1.0 < t.drop_p)
  then t.dropped <- t.dropped + 1
  else begin
      let link = (src * t.nodes) + dst in
    let now = Engine.now t.eng in
    let ser_ns = max 1 (int_of_float (float_of_int bytes *. t.ns_per_byte)) in
    let start = max now t.next_free.(link) in
    let depart = start + ser_ns in
    t.next_free.(link) <- depart;
    t.busy_ns.(link) <- t.busy_ns.(link) + ser_ns;
    t.msgs <- t.msgs + 1;
    t.bytes <- t.bytes + bytes;
    Engine.schedule_at t.eng ~time:(depart + t.latency_ns) f
  end

let msgs t = t.msgs
let bytes t = t.bytes
let dropped t = t.dropped

let utilization t =
  let elapsed = Engine.now t.eng - t.created_at in
  if elapsed <= 0 then 0.0
  else
    let hottest = Array.fold_left max 0 t.busy_ns in
    float_of_int hottest /. float_of_int elapsed
