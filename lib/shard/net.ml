module Engine = Phoebe_sim.Engine
module Netchan = Phoebe_sim.Netchan
module Obs = Phoebe_obs.Obs

type config = { drop_p : float; seed : int }

let default_config = { drop_p = 0.0; seed = 7 }

(* Fabric constants. No caller varies them. *)
let latency_ns = 50_000
let gbps = 10.0

type t = { chan : Netchan.t; nodes : int; handlers : (Msg.t -> unit) option array }

let create ?obs eng ~nodes cfg =
  let t =
    {
      chan =
        Netchan.create ~drop_p:cfg.drop_p ~seed:cfg.seed eng ~nodes ~latency_ns ~gbps;
      nodes;
      handlers = Array.make nodes None;
    }
  in
  (match obs with
  | Some reg ->
    Obs.int_fn reg "net.msgs" (fun () -> Netchan.msgs t.chan);
    Obs.int_fn reg "net.bytes" (fun () -> Netchan.bytes t.chan);
    Obs.int_fn reg "net.dropped" (fun () -> Netchan.dropped t.chan);
    Obs.float_fn reg "net.utilization" (fun () -> Netchan.utilization t.chan)
  | None -> ());
  t

let set_handler t ~node f = t.handlers.(node) <- Some f
let set_partitioned t ~node v = Netchan.set_partitioned t.chan ~node v

let send t (m : Msg.t) =
  if m.Msg.src < 0 || m.Msg.src >= t.nodes || m.Msg.dst < 0 || m.Msg.dst >= t.nodes then
    invalid_arg "Net.send: shard id out of range";
  let wire = Msg.encode m in
  Netchan.send t.chan ~src:m.Msg.src ~dst:m.Msg.dst ~bytes:(Bytes.length wire) (fun () ->
      match t.handlers.(m.Msg.dst) with
      | Some f -> f (Msg.decode wire)
      | None ->
        Phoebe_util.Phoebe_error.bug ~subsystem:"shard.net" "no handler installed on shard %d"
          m.Msg.dst)

let msgs t = Netchan.msgs t.chan
let bytes t = Netchan.bytes t.chan
let dropped t = Netchan.dropped t.chan
let utilization t = Netchan.utilization t.chan
