module Engine = Phoebe_sim.Engine
module Stats = Phoebe_util.Stats
module Obs = Phoebe_obs.Obs

type kind = Read | Write

type config = {
  channels : int;
  read_mb_s : float;
  write_mb_s : float;
  iops : float;
  latency_us : float;
}

let pm9a3 =
  { channels = 8; read_mb_s = 6500.0; write_mb_s = 1900.0; iops = 130_000.0; latency_us = 90.0 }

let sector_size = 512

type fault_config = {
  fault_seed : int;
  torn_write_p : float;
  lost_ack_p : float;
  delayed_ack_p : float;
  max_delay_ns : int;
}

type write_outcome = W_done | W_torn of int | W_lost_ack

type t = {
  engine : Engine.t;
  dname : string;
  cfg : config;
  faults : (Phoebe_util.Prng.t * fault_config) option;
  channel_free : int array;  (** virtual time each channel next falls idle *)
  channel_busy : int array;  (** cumulative service time booked per channel *)
  read_bytes : Obs.Counter.t;
  write_bytes : Obs.Counter.t;
  read_ops : Obs.Counter.t;
  write_ops : Obs.Counter.t;
  read_batches : Obs.Counter.t;
  write_batches : Obs.Counter.t;
  faults_torn : Obs.Counter.t;
  faults_lost_ack : Obs.Counter.t;
  faults_delayed : Obs.Counter.t;
  read_series : Stats.Series.t;
  write_series : Stats.Series.t;
  created_at : int;
}

(* A channel booked past [now] (deep queues, large batches) contributes at
   most the elapsed wall time: utilisation saturates per channel instead
   of letting future-booked service inflate the fraction. *)
let busy_fraction t =
  let elapsed = Engine.now t.engine - t.created_at in
  if elapsed <= 0 then 0.0
  else
    let busy =
      Array.fold_left (fun acc b -> acc + min b elapsed) 0 t.channel_busy
    in
    float_of_int busy /. (float_of_int elapsed *. float_of_int t.cfg.channels)

(* 100ms buckets feed the Exp 3 / Exp 4 throughput-over-time figures. *)
let series_bucket_width = 100_000_000

let create ?obs ?faults engine ~name cfg =
  if cfg.channels < 1 then invalid_arg "Device.create: a device needs at least one channel";
  let counter metric =
    match obs with
    | Some reg -> Obs.counter reg (Printf.sprintf "io.%s.%s" name metric)
    | None -> Obs.Counter.create ()
  in
  (* Fault counters only enter the registry when injection is on: with
     [faults = None] the registry export is bit-identical to a faultless
     build. *)
  let fault_counter metric =
    match (obs, faults) with
    | Some reg, Some _ -> Obs.counter reg (Printf.sprintf "io.%s.faults.%s" name metric)
    | _ -> Obs.Counter.create ()
  in
  let series metric =
    match obs with
    | Some reg ->
      Obs.series reg (Printf.sprintf "io.%s.%s" name metric) ~bucket_width:series_bucket_width
    | None -> Stats.Series.create ~bucket_width:series_bucket_width
  in
  let t =
    {
      engine;
      dname = name;
      cfg;
      faults =
        Option.map (fun fc -> (Phoebe_util.Prng.create ~seed:fc.fault_seed, fc)) faults;
      channel_free = Array.make cfg.channels 0;
      channel_busy = Array.make cfg.channels 0;
      read_bytes = counter "read.bytes";
      write_bytes = counter "write.bytes";
      read_ops = counter "read.ops";
      write_ops = counter "write.ops";
      read_batches = counter "read.batches";
      write_batches = counter "write.batches";
      faults_torn = fault_counter "torn";
      faults_lost_ack = fault_counter "lost_ack";
      faults_delayed = fault_counter "delayed";
      read_series = series "read.series";
      write_series = series "write.series";
      created_at = Engine.now engine;
    }
  in
  (match obs with
  | None -> ()
  | Some reg ->
    Obs.float_fn reg (Printf.sprintf "io.%s.busy_fraction" name) (fun () -> busy_fraction t));
  t

let name t = t.dname
let engine t = t.engine

(* ~5ms: NVMe completion timeout + reset + verify, compressed to
   simulation scale. Long enough to dominate any normal completion
   latency, short enough that faulty runs still make progress. *)
let fault_recovery_ns = 5_000_000

let bandwidth t = function Read -> t.cfg.read_mb_s | Write -> t.cfg.write_mb_s

let bw_ns t kind bytes = float_of_int bytes /. (bandwidth t kind *. 1e6) *. 1e9
let iops_ns t = 1e9 /. t.cfg.iops

(* The channel that frees earliest (NVMe queue parallelism), the lowest
   id on a tie. A scan: devices have a handful of channels. *)
let take_channel t =
  let free = t.channel_free in
  let best = ref 0 in
  for ch = 1 to Array.length free - 1 do
    if free.(ch) < free.(!best) then best := ch
  done;
  !best

let account_op t kind bytes finish =
  match kind with
  | Read ->
    Obs.Counter.add t.read_bytes bytes;
    Obs.Counter.incr t.read_ops;
    Stats.Series.add t.read_series ~time:finish (float_of_int bytes)
  | Write ->
    Obs.Counter.add t.write_bytes bytes;
    Obs.Counter.incr t.write_ops;
    Stats.Series.add t.write_series ~time:finish (float_of_int bytes)

let account_batch t kind =
  match kind with
  | Read -> Obs.Counter.incr t.read_batches
  | Write -> Obs.Counter.incr t.write_batches

(* One multi-SQE doorbell: the whole batch occupies a single channel for
   [max (sum bytes / bandwidth) (1 / iops)] — the per-op IOPS floor is
   amortised across the batch, bandwidth is paid in full — and every op's
   completion fires (in submission order) once the batch is done.
   Returns the batch's completion (virtual) time. *)
let book_batch t kind ~sizes =
  let now = Engine.now t.engine in
  let ch = take_channel t in
  let free = t.channel_free.(ch) in
  let start = if free > now then free else now in
  let total = List.fold_left ( + ) 0 sizes in
  let service = int_of_float (Float.max (bw_ns t kind total) (iops_ns t)) in
  let finish = start + service in
  t.channel_free.(ch) <- finish;
  t.channel_busy.(ch) <- t.channel_busy.(ch) + service;
  account_batch t kind;
  List.iter (fun bytes -> account_op t kind bytes finish) sizes;
  finish + int_of_float (t.cfg.latency_us *. 1000.0)

let submit_batch t kind ~sizes ~on_complete =
  match sizes with
  | [] -> ()
  | _ ->
    let complete_at = book_batch t kind ~sizes in
    (* same-instant events fire FIFO, so completions fan out in
       submission order deterministically *)
    List.iteri
      (fun i _ -> Engine.schedule_at t.engine ~time:complete_at (fun () -> on_complete i))
      sizes

(* Outcome-aware write path for the stores. Without fault injection it
   schedules exactly the events [submit_batch] would — same count, same
   times, same FIFO order — so the default simulation is bit-identical.
   With faults, each op rolls the device PRNG once and may tear (a
   sector-aligned strict prefix reaches media, no completion), lose its
   ack (data durable, completion never delivered) or complete late. *)
let submit_writes t ~sizes ~on_outcome =
  match sizes with
  | [] -> ()
  | _ ->
    let complete_at = book_batch t Write ~sizes in
    (match t.faults with
    | None ->
      List.iteri
        (fun i _ -> Engine.schedule_at t.engine ~time:complete_at (fun () -> on_outcome i W_done))
        sizes
    | Some (rng, fc) ->
      List.iteri
        (fun i bytes ->
          let r = Phoebe_util.Prng.float rng 1.0 in
          if r < fc.torn_write_p then begin
            Obs.Counter.incr t.faults_torn;
            let sectors = (bytes + sector_size - 1) / sector_size in
            let keep = if sectors <= 1 then 0 else Phoebe_util.Prng.int rng sectors in
            let media = min bytes (keep * sector_size) in
            Engine.schedule_at t.engine ~time:complete_at (fun () -> on_outcome i (W_torn media))
          end
          else if r < fc.torn_write_p +. fc.lost_ack_p then begin
            Obs.Counter.incr t.faults_lost_ack;
            Engine.schedule_at t.engine ~time:complete_at (fun () -> on_outcome i W_lost_ack)
          end
          else if r < fc.torn_write_p +. fc.lost_ack_p +. fc.delayed_ack_p then begin
            Obs.Counter.incr t.faults_delayed;
            let delay = 1 + Phoebe_util.Prng.int rng (max 1 fc.max_delay_ns) in
            Engine.schedule_at t.engine ~time:(complete_at + delay) (fun () ->
                on_outcome i W_done)
          end
          else
            Engine.schedule_at t.engine ~time:complete_at (fun () -> on_outcome i W_done))
        sizes)

let submit t kind ~bytes ~on_complete =
  submit_batch t kind ~sizes:[ bytes ] ~on_complete:(fun _ -> on_complete ())

let blocking t kind ~bytes =
  Phoebe_runtime.Scheduler.io_wait (fun resume -> submit t kind ~bytes ~on_complete:resume)

let total_bytes t = function
  | Read -> Obs.Counter.get t.read_bytes
  | Write -> Obs.Counter.get t.write_bytes

let total_ops t = function Read -> Obs.Counter.get t.read_ops | Write -> Obs.Counter.get t.write_ops

let total_batches t = function
  | Read -> Obs.Counter.get t.read_batches
  | Write -> Obs.Counter.get t.write_batches

let fault_counts t =
  ( Obs.Counter.get t.faults_torn,
    Obs.Counter.get t.faults_lost_ack,
    Obs.Counter.get t.faults_delayed )

let throughput_series t kind =
  let series = match kind with Read -> t.read_series | Write -> t.write_series in
  List.map (fun (s, bytes_per_s) -> (s, bytes_per_s /. 1e6)) (Stats.Series.rate_per_second series)
