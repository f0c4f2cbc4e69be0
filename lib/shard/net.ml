module Engine = Phoebe_sim.Engine
module Netchan = Phoebe_sim.Netchan
module Obs = Phoebe_obs.Obs
module Prng = Phoebe_util.Prng

type config = { latency_ns : int; gbps : float; drop_p : float; seed : int }

let default_config = { latency_ns = 50_000; gbps = 10.0; drop_p = 0.0; seed = 7 }

type t = {
  chan : Netchan.t;
  nodes : int;
  drop_p : float;
  rng : Prng.t;
  handlers : (Msg.t -> unit) option array;
  partitioned : bool array;
  mutable dropped : int;
}

let create ?obs eng ~nodes cfg =
  let t =
    {
      chan = Netchan.create eng ~nodes ~latency_ns:cfg.latency_ns ~gbps:cfg.gbps;
      nodes;
      drop_p = cfg.drop_p;
      rng = Prng.create ~seed:cfg.seed;
      handlers = Array.make nodes None;
      partitioned = Array.make nodes false;
      dropped = 0;
    }
  in
  (match obs with
  | Some reg ->
    Obs.int_fn reg "net.msgs" (fun () -> Netchan.msgs t.chan);
    Obs.int_fn reg "net.bytes" (fun () -> Netchan.bytes t.chan);
    Obs.int_fn reg "net.dropped" (fun () -> t.dropped);
    Obs.float_fn reg "net.utilization" (fun () -> Netchan.utilization t.chan)
  | None -> ());
  t

let set_handler t ~node f = t.handlers.(node) <- Some f
let set_partitioned t ~node v = t.partitioned.(node) <- v
let is_partitioned t ~node = t.partitioned.(node)

let send t (m : Msg.t) =
  if m.Msg.src < 0 || m.Msg.src >= t.nodes || m.Msg.dst < 0 || m.Msg.dst >= t.nodes then
    invalid_arg "Net.send: shard id out of range";
  (* a partitioned node neither sends nor receives; independently, a
     lossy fabric drops each message with probability [drop_p] — both
     show up as silence, which is exactly what timeouts are for *)
  let dropped =
    t.partitioned.(m.Msg.src)
    || t.partitioned.(m.Msg.dst)
    || (t.drop_p > 0.0 && Prng.float t.rng 1.0 < t.drop_p)
  in
  if dropped then t.dropped <- t.dropped + 1
  else begin
    let wire = Msg.encode m in
    Netchan.send t.chan ~src:m.Msg.src ~dst:m.Msg.dst ~bytes:(Bytes.length wire) (fun () ->
        match t.handlers.(m.Msg.dst) with
        | Some f -> f (Msg.decode wire)
        | None ->
          Phoebe_util.Phoebe_error.bug ~subsystem:"shard.net" "no handler installed on shard %d"
            m.Msg.dst)
  end

let msgs t = Netchan.msgs t.chan
let bytes t = Netchan.bytes t.chan
let dropped t = t.dropped
let utilization t = Netchan.utilization t.chan
