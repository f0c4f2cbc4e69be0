(* The four workloads, their load generators, correctness checks and
   metrics.

   Everything reaches the kernel through public calls: Db, Tpcc's load
   and transaction bodies, Checkpoint, Cluster, Tpcc_sharded,
   Open_loop and Obs.snapshot. The load loops are the benchmark's own, so
   latencies are exact: each is an int in a sorted array, not a
   histogram bucket. *)

module Db = Phoebe_core.Db
module Config = Phoebe_core.Config
module Checkpoint = Phoebe_core.Checkpoint
module Table = Phoebe_core.Table
module Tpcc = Phoebe_tpcc.Tpcc
module Tpcc_sharded = Phoebe_tpcc.Tpcc_sharded
module Cluster = Phoebe_shard.Cluster
module Open_loop = Phoebe_workload.Open_loop
module Engine = Phoebe_sim.Engine
module Scheduler = Phoebe_runtime.Scheduler
module Txnmgr = Phoebe_txn.Txnmgr
module Obs = Phoebe_obs.Obs
module Trace = Phoebe_obs.Trace
module Prng = Phoebe_util.Prng
module Zipf = Phoebe_util.Zipf

let mb = 1024 * 1024

type single = {
  warehouses : int;
  buffer_mb : int;
  mix : (Tpcc.txn_kind * float) list;
  gate_recovery : bool;
      (** false where restore is known to come back wrong: traced runs
          still measure and report the mismatch, but nothing gates on it *)
}

type sharded = { shards : int; wps : int; rate : float }
type shape = Single of single | Sharded of sharded

type spec = {
  name : string;
  shape : shape;
  vs_per_host_s : float;
      (** virtual seconds run per requested host second: chosen so
          the measured phase lasts about [--seconds] on a 2-core x86-64
          virtual machine; the work is fixed, so both commits of a comparison
          run the same transactions *)
}

let read_mix = [ (Tpcc.Order_status, 0.5); (Tpcc.Stock_level, 0.5) ]

let specs =
  [
    {
      name = "tpcc_fit";
      shape = Single { warehouses = 2; buffer_mb = 64; mix = Tpcc.standard_mix; gate_recovery = true };
      vs_per_host_s = 0.38;
    };
    {
      name = "tpcc_spill";
      shape = Single { warehouses = 4; buffer_mb = 16; mix = Tpcc.standard_mix; gate_recovery = false };
      vs_per_host_s = 0.32;
    };
    {
      name = "tpcc_read";
      shape = Single { warehouses = 2; buffer_mb = 64; mix = read_mix; gate_recovery = true };
      vs_per_host_s = 0.45;
    };
    {
      name = "sharded_2pc";
      shape = Sharded { shards = 2; wps = 2; rate = 12_000.0 };
      vs_per_host_s = 0.48;
    };
  ]

(* Whether every run crashes, restarts and checks the restart row for
   row: everywhere but where the kernel is known to get it wrong. *)
let gated spec = match spec.shape with Single s -> s.gate_recovery | Sharded _ -> true

(* The initial database is the same on every run: TPC-C's population is
   a fixed input, and [--seed] varies the transaction stream. Seeding the
   population too made StockLevel's cost, which depends on the order lines
   of each district's last 20 orders, differ by seed. *)
let population_seed = 42

(* Run length and repetition counts. [quick] is the self-test's size. *)
type size = {
  duration_ns : int;
  setup_reps : int;
  slices : int;
  rung_ns : int;
  probe_quota : float;
  timing : bool;  (** host times matter: calibrate, and compact the heap before each set-up *)
}

let size ~quick spec ~seconds =
  if quick then
    { duration_ns = 10_000_000; setup_reps = 1; slices = 2; rung_ns = 10_000_000; probe_quota = 0.0005; timing = false }
  else begin
    let slices = 40 in
    let slice_ms = Float.round (seconds *. spec.vs_per_host_s *. 1e3 /. float slices) in
    {
      duration_ns = slices * int_of_float (Float.max 1.0 slice_ms) * 1_000_000;
      setup_reps = 9;
      slices;
      rung_ns = int_of_float (seconds *. 0.15 *. 1e9);
      probe_quota = 0.2;
      timing = true;
    }
  end

(* ------------------------------------------------------------------ *)
(* Exact latency samples *)

module Lat = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Int.compare s;
    s

  (* Nearest-rank percentile of a sorted array, [permille] in 1..1000. *)
  let rank n permille = max 1 (((permille * n) + 999) / 1000)
  let pct s permille = if Array.length s = 0 then 0 else s.(rank (Array.length s) permille - 1)

  (* The highest of p99.9 / p99 / p90 / p50 with at least ten samples
     beyond it: (permille, value). *)
  let tail s =
    let n = Array.length s in
    match List.find_opt (fun p -> n - rank n p >= 10) [ 999; 990; 900; 500 ] with
    | Some p -> (p, pct s p)
    | None -> (0, 0)
end

(* ------------------------------------------------------------------ *)
(* Outcome tally *)

let kind_names = [| "new_order"; "payment"; "order_status"; "delivery"; "stock_level" |]

let kind_index = function
  | Tpcc.New_order -> 0
  | Tpcc.Payment -> 1
  | Tpcc.Order_status -> 2
  | Tpcc.Delivery -> 3
  | Tpcc.Stock_level -> 4

type outcome =
  | Committed
  | Rolled_back  (** TPC-C's spec-mandated 1% NewOrder rollback: a correct outcome *)
  | Failed

type tally = {
  all : Lat.t;  (** committed latencies, ns *)
  by_kind : Lat.t array;
  mutable committed : int;
  mutable rolled_back : int;
  mutable failed : int;
  mutable new_orders : int;
  mutable last_done : int;  (** virtual time of the latest completion *)
}

let tally () =
  {
    all = Lat.create ();
    by_kind = Array.map (fun _ -> Lat.create ()) kind_names;
    committed = 0;
    rolled_back = 0;
    failed = 0;
    new_orders = 0;
    last_done = 0;
  }

let record t kind outcome ~began ~now =
  let ns = now - began in
  t.last_done <- now;
  match outcome with
  | Committed ->
    t.committed <- t.committed + 1;
    if kind = Tpcc.New_order then t.new_orders <- t.new_orders + 1;
    Lat.add t.all ns;
    Lat.add t.by_kind.(kind_index kind) ns
  | Rolled_back -> t.rolled_back <- t.rolled_back + 1
  | Failed -> t.failed <- t.failed + 1

(* TPC-C's card-deck mix (clause 5.2.4.2): kinds are drawn from a
   shuffled deck of 100 cards holding the mix's percentages, reshuffled
   when empty. The mix of every run is exact to within one deck per
   deck holder; the seed varies only the order. *)
module Deck = struct
  type t = { cards : Tpcc.txn_kind array; mutable next : int }

  let create mix =
    let cards = List.concat_map (fun (k, p) -> List.init (int_of_float (Float.round (p *. 100.0))) (fun _ -> k)) mix in
    let cards = Array.of_list cards in
    { cards; next = Array.length cards }

  let draw t rng =
    if t.next = Array.length t.cards then begin
      Prng.shuffle rng t.cards;
      t.next <- 0
    end;
    t.next <- t.next + 1;
    t.cards.(t.next - 1)
end

(* One TPC-C body; the spec rollback becomes a user abort (not retried). *)
let run_body t kind txn rng ~w_id ~rolled_back =
  Scheduler.span_kind (kind_index kind + 1);
  try
    match kind with
    | Tpcc.New_order -> Tpcc.new_order t txn rng ~w_id
    | Tpcc.Payment -> Tpcc.payment t txn rng ~w_id
    | Tpcc.Order_status -> Tpcc.order_status t txn rng ~w_id
    | Tpcc.Delivery -> Tpcc.delivery t txn rng ~w_id
    | Tpcc.Stock_level -> Tpcc.stock_level t txn rng ~w_id
  with Tpcc.Rollback ->
    rolled_back := true;
    raise (Txnmgr.Abort (Txnmgr.User, "user-initiated rollback"))

let name_kinds db = match Db.trace db with Some tr -> Trace.set_kind_names tr kind_names | None -> ()

(* ------------------------------------------------------------------ *)
(* Correctness checks *)

let tables = [ "warehouse"; "district"; "customer"; "history"; "neworder"; "orders"; "orderline"; "item"; "stock" ]

let row_counts db =
  Db.with_txn db (fun txn ->
      List.map
        (fun name ->
          let n = ref 0 in
          Table.scan (Db.table db name) txn (fun _ _ -> incr n);
          !n)
        tables)

let duplicate_orders db =
  Db.with_txn db (fun txn ->
      let seen = Hashtbl.create 4096 and dups = ref 0 in
      Table.scan (Db.table db "orders") txn (fun _ row ->
          let key = (row.(0), row.(1), row.(2)) in
          if Hashtbl.mem seen key then incr dups else Hashtbl.add seen key ());
      !dups)

(* Rows that differ between the live pre-crash database and the restored
   one, plus duplicate orders primary keys. *)
let recovery_mismatch ~before db =
  List.fold_left2 (fun acc a b -> acc + abs (a - b)) 0 before (row_counts db) + duplicate_orders db

let consistency ?(prefix = "") t =
  List.map (fun (name, ok) -> (prefix ^ name, ok)) (Span.with_ "checks" (fun () -> Tpcc.consistency_checks t))

(* ------------------------------------------------------------------ *)
(* One pass of a workload: set-up, measured run, checks, crash, recovery *)

(* The median time of one set-up, in reference and in CPU seconds. *)
type setup_time = { setup_s : float; setup_cpu_s : float }

(* Set up [sz.setup_reps] times, each after dropping the previous
   instance and compacting the heap; returns the set-up time and the last
   instance. *)
let timed_setup ~sz setup =
  let last = ref None in
  let times =
    List.init sz.setup_reps (fun _ ->
        last := None;
        if sz.timing then Gc.compact ();
        let before = Host.calibration ~on:sz.timing in
        let x, raw = Host.timed (fun () -> Span.with_ "setup" setup) in
        last := Some x;
        (Host.reference ~cal:((before +. Host.calibration ~on:sz.timing) /. 2.0) raw, raw))
  in
  ( { setup_s = Host.median (List.map fst times); setup_cpu_s = Host.median (List.map snd times) },
    Option.get !last )

let snapshot regs = Span.with_ "snapshot" (fun () -> List.map Obs.snapshot regs)

(* What the measured run left behind. *)
type run = {
  host_tps : float;  (** committed per reference second, median over slices *)
  host_tps_cpu : float;  (** committed per CPU second, median over slices *)
  calibration_s : float;  (** the probe loop's median time around the slices *)
  virtual_ns : int;  (** arrival window plus drain *)
  backlog_ns : int;  (** from the end of the arrival window to the last completion *)
  minor_words : float;
  live_words : int;  (** major-heap words still reachable after the run *)
  diff : (string * Obs.value) list list;  (** per registry, over the run *)
  last : (string * Obs.value) list list;  (** per registry, after the run *)
}

(* Drive [slices] equal virtual-time slices of [duration_ns], timing
   each and the probe loop between them, then [drain] to quiescence. *)
let measure ~eng ~regs ~sz ~duration_ns ~run_for ~drain tally =
  let slices = sz.slices in
  let before = snapshot regs in
  let w0 = Gc.minor_words () and start = Engine.now eng in
  let cal = ref (Host.calibration ~on:sz.timing) in
  (* per slice: commits, CPU seconds, the probe loop's mean time around it *)
  let steps =
    List.init slices (fun _ ->
        let k0 = tally.committed in
        let (), raw = Host.timed (fun () -> Span.with_ "run_for" (fun () -> run_for (duration_ns / slices))) in
        let c0 = !cal in
        cal := Host.calibration ~on:sz.timing;
        (float (tally.committed - k0), raw, (c0 +. !cal) /. 2.0))
  in
  let per f = Host.median (List.map (fun (n, raw, cal) -> if raw > 0.0 then f n raw cal else 0.0) steps) in
  let window_end = Engine.now eng in
  Span.with_ "drain" drain;
  (* before anything whose allocation depends on measured times *)
  let minor_words = Gc.minor_words () -. w0 in
  let after = snapshot regs in
  (* Gc.stat runs a full major collection first *)
  let live_words = (Gc.stat ()).Gc.live_words in
  {
    host_tps = per (fun n raw cal -> n /. Host.reference ~cal raw);
    host_tps_cpu = per (fun n raw _ -> n /. raw);
    calibration_s = Host.median (List.map (fun (_, _, cal) -> cal) steps);
    virtual_ns = Engine.now eng - start;
    backlog_ns = max 0 (tally.last_done - window_end);
    minor_words;
    live_words;
    diff = List.map2 (fun older newer -> Obs.diff ~older ~newer) before after;
    last = after;
  }

type recovery = {
  recovery_s : float;  (** CPU seconds *)
  records : int;  (** WAL records read *)
  mismatch : int;  (** rows that differ from the live pre-crash tables, plus duplicate orders keys *)
}

let no_recovery = { recovery_s = 0.0; records = 0; mismatch = 0 }

(* Count rows, crash, time the restart, count again. *)
let crash_and_recover ~dbs ~crash ~restart =
  let counts = Span.with_ "row_counts" (fun () -> List.map row_counts dbs) in
  Span.with_ "crash" crash;
  let (restarted, records), recovery_s = Host.timed (fun () -> Span.with_ "restore" restart) in
  let mismatch =
    Span.with_ "row_counts" (fun () ->
        List.fold_left2 (fun acc before db -> acc + recovery_mismatch ~before db) 0 counts restarted)
  in
  { recovery_s; records; mismatch }

type pass = {
  tally : tally;
  setup : setup_time;
  run : run;
  shed : int;
  dtxns : int;  (** submissions through [Cluster.submit_dtxn] *)
  recovery : recovery;
  checks : (string * bool) list;
}

let config ~n_workers ~slots ~buffer_mb ~traced =
  { Config.default with Config.n_workers; slots_per_worker = slots; buffer_bytes = buffer_mb * mb; spans = traced }

let single_pass s ~seed ~sz ~recover ~traced =
  let cfg = config ~n_workers:2 ~slots:8 ~buffer_mb:s.buffer_mb ~traced in
  let setup, (db, t, snap) =
    timed_setup ~sz (fun () ->
        let db = Span.with_ "create" (fun () -> Db.create cfg) in
        let t =
          Span.with_ "load" (fun () ->
              Tpcc.load db ~warehouses:s.warehouses ~scale:Tpcc.default_scale ~seed:population_seed ())
        in
        (db, t, Span.with_ "checkpoint" (fun () -> Checkpoint.take db)))
  in
  name_kinds db;
  let eng = Db.engine db in
  let tally = tally () in
  let deadline = Engine.now eng + sz.duration_ns in
  (* 16 virtual users, zero think time, each bound to its home
     warehouse's worker *)
  let rec user uid deck rng =
    if Engine.now eng < deadline then begin
      let w_id = 1 + (uid mod s.warehouses) in
      let kind = Deck.draw deck rng in
      let began = Engine.now eng in
      let rolled_back = ref false and ok = ref false in
      let on_done () =
        record tally kind (if !ok then Committed else if !rolled_back then Rolled_back else Failed) ~began ~now:(Engine.now eng);
        user uid deck rng
      in
      Span.submit (fun () ->
          Db.submit db ~affinity:((w_id - 1) mod cfg.Config.n_workers) ~on_done (fun txn ->
              run_body t kind txn rng ~w_id ~rolled_back;
              ok := true))
    end
  in
  let rng0 = Prng.create ~seed in
  for uid = 0 to 15 do
    user uid (Deck.create s.mix) (Prng.split rng0)
  done;
  let run =
    measure ~eng ~regs:[ Db.obs db ] ~sz ~duration_ns:sz.duration_ns
      ~run_for:(fun ns -> Db.run_for db ~ns)
      ~drain:(fun () -> Db.run db)
      tally
  in
  let checks = consistency t in
  let recovery, checks =
    if not recover then (no_recovery, checks)
    else begin
      let recovery =
        crash_and_recover ~dbs:[ db ]
          ~crash:(fun () -> ignore (Db.crash db : Db.crash_report))
          ~restart:(fun () ->
            let db2, report = Checkpoint.restore ~from:db ~snapshot:snap cfg in
            ([ db2 ], report.Phoebe_wal.Recovery.records_read))
      in
      ( recovery,
        if s.gate_recovery then
          checks @ [ ("restore: nine tables' row counts match, no duplicate orders keys", recovery.mismatch = 0) ]
        else checks )
    end
  in
  { tally; setup; run; shed = 0; dtxns = 0; recovery; checks }

(* Open-loop TPC-C over a K-shard cluster. Latency runs from each
   arrival's due time: arrivals are engine events, so the generator is
   never late. [recover] adds the crash/recovery step. *)
let sharded_pass s ~seed ~rate ~sz ~duration_ns ~recover ~traced =
  let cfg =
    {
      (config ~n_workers:2 ~slots:4 ~buffer_mb:16 ~traced) with
      Config.admission = { Config.enabled = true; max_inflight = 32; max_lock_wait_p95_ns = 0 };
    }
  in
  let setup, (cl, ts) =
    timed_setup ~sz (fun () ->
        let cl = Span.with_ "create" (fun () -> Cluster.create (Engine.create ()) ~shards:s.shards cfg) in
        (cl, Span.with_ "load" (fun () -> Tpcc_sharded.create cl ~warehouses_per_shard:s.wps ~seed:population_seed ())))
  in
  let shard_dbs = List.init s.shards (Cluster.shard cl) in
  List.iter name_kinds shard_dbs;
  let eng = Cluster.engine cl in
  let tally = tally () in
  let dtxns = ref 0 in
  let zipf = Zipf.create ~theta:0.6 ~n:(Tpcc_sharded.total_warehouses ts) () in
  (* one deck for the whole arrival stream, with a generator of its own *)
  let deck = Deck.create Tpcc.standard_mix and deck_rng = Prng.create ~seed:(seed + 1_000_003) in
  let submit ~rng ~on_done =
    let home_g = 1 + Zipf.sample zipf rng in
    let shard, w_id = Tpcc_sharded.locate ts home_g in
    let kind = Deck.draw deck deck_rng in
    let due = Engine.now eng in
    let rolled_back = ref false in
    let finish ok =
      record tally kind (if ok then Committed else if !rolled_back then Rolled_back else Failed) ~began:due ~now:(Engine.now eng);
      on_done ()
    in
    let distributed body =
      Cluster.submit_dtxn cl ~home:shard
        ~on_done:(fun ~committed -> finish committed)
        (fun dtx ->
          Scheduler.span_kind (kind_index kind + 1);
          try body ts dtx rng ~home_g
          with Txnmgr.Abort (Txnmgr.User, _) as e ->
            rolled_back := true;
            raise e);
      (* admitted: a shed submission raised before this point *)
      incr dtxns
    in
    Span.submit (fun () ->
        match kind with
        | Tpcc.New_order -> distributed Tpcc_sharded.new_order
        | Tpcc.Payment -> distributed Tpcc_sharded.payment
        | _ ->
          let ok = ref false in
          Cluster.submit_local cl ~shard
            ~on_done:(fun () -> finish !ok)
            (fun txn ->
              run_body (Tpcc_sharded.part ts shard) kind txn rng ~w_id ~rolled_back;
              ok := true))
  in
  let gen = Open_loop.start eng ~shape:(Open_loop.Steady rate) ~duration_ns ~seed ~submit in
  let run =
    measure ~eng ~regs:(Cluster.obs cl :: List.map Db.obs shard_dbs) ~sz ~duration_ns
      ~run_for:(fun ns -> Cluster.run_for cl ~ns)
      ~drain:(fun () -> Cluster.run cl)
      tally
  in
  let checks =
    List.concat (List.init s.shards (fun k -> consistency ~prefix:(Printf.sprintf "shard %d: " k) (Tpcc_sharded.part ts k)))
  in
  let recovery, checks =
    if not recover then (no_recovery, checks)
    else begin
      let recovery =
        crash_and_recover ~dbs:shard_dbs
          ~crash:(fun () -> ignore (Cluster.crash cl : Db.crash_report array))
          ~restart:(fun () ->
            let cl2, report =
              Cluster.recover cl ~ddl:(Tpcc_sharded.ddl ~warehouses_per_shard:s.wps ~scale:Tpcc.default_scale ~seed:population_seed)
            in
            ( List.init s.shards (Cluster.shard cl2),
              Array.fold_left (fun acc r -> acc + r.Phoebe_wal.Recovery.records_read) 0 report.Cluster.shard_reports ))
      in
      (recovery, checks @ [ ("recover: every shard's row counts match, no duplicate orders keys", recovery.mismatch = 0) ])
    end
  in
  { tally; setup; run; shed = Open_loop.shed gen; dtxns = !dtxns; recovery; checks }

(* [recover]: crash after the run and time the restart, checking it row
   for row where the kernel gets it right. *)
let pass spec ~seed ~sz ~recover ~traced =
  match spec.shape with
  | Single s -> single_pass s ~seed ~sz ~recover ~traced
  | Sharded s -> sharded_pass s ~seed ~rate:s.rate ~sz ~duration_ns:sz.duration_ns ~recover ~traced

(* ------------------------------------------------------------------ *)
(* Metrics *)

(* [repeatable]: the same seed gives the same value (simulated clock,
   counts, allocation); the rest are host-clock or heap measurements. *)
type metric = { name : string; value : float; unit : string; repeatable : bool }

let sim name unit value = { name; value; unit; repeatable = true }
let host name unit value = { name; value; unit; repeatable = false }
let ratio a b = if b > 0.0 then a /. b else 0.0
let attempted (p : pass) = p.tally.committed + p.tally.rolled_back + p.tally.failed + p.shed
let failed (p : pass) = p.tally.failed + p.shed
let us ns = float ns /. 1e3
let words_mb w = float (w * 8) /. float mb

let end_to_end (p : pass) =
  let lat = Lat.sorted p.tally.all in
  let committed = float p.tally.committed in
  [
    sim "commits_per_vs" "1/s" (ratio committed (float p.run.virtual_ns /. 1e9));
    sim "lat_p50_us" "us" (us (Lat.pct lat 500));
    sim "lat_p99_us" "us" (us (Lat.pct lat 990));
    sim "alloc_words_per_txn" "words" (ratio p.run.minor_words committed);
    host "host_tps" "1/s" p.run.host_tps;
    host "setup_s" "s" p.setup.setup_s;
    host "live_heap_mb" "MB" (words_mb p.run.live_words);
  ]

(* Registry readers: counters summed over registries, gauges averaged. *)
let number = function Obs.Int i -> Some (float i) | Obs.Float f -> Some f | _ -> None
let sum snaps name = List.fold_left (fun acc s -> acc +. Option.value ~default:0.0 (Option.bind (List.assoc_opt name s) number)) 0.0 snaps

let mean snaps name =
  match List.filter_map (fun s -> Option.bind (List.assoc_opt name s) number) snaps with
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float (List.length xs)

let hist_sum snaps name =
  List.fold_left (fun acc s -> match List.assoc_opt name s with Some (Obs.Hist h) -> acc +. h.sum | _ -> acc) 0.0 snaps

(* Capacity ladder of the sharded workload (traced run only): one fresh
   cluster per rung, crossing the knee. A rung is met when p99 over every
   arrival, sheds and failures counting as misses, is within 2 ms and the
   last transaction completes within 10 ms of the arrival window's end:
   no backlog grew. *)
let ladder_rates = [ 6_000.0; 12_000.0; 18_000.0; 24_000.0 ]
let rung_label rate = Printf.sprintf "r%dk" (int_of_float (rate /. 1000.0))

type rung = { rate : float; shed_share : float; p99_us : float; met : bool }

let ladder s ~seed ~sz =
  List.map
    (fun rate ->
      let p =
        sharded_pass s ~seed ~rate ~sz:{ sz with setup_reps = 1; slices = 1 } ~duration_ns:sz.rung_ns ~recover:false
          ~traced:false
      in
      let lat = Lat.sorted p.tally.all in
      let n = Array.length lat + failed p in
      let r = Lat.rank n 990 in
      let within_2ms = n > 0 && r <= Array.length lat && lat.(r - 1) <= 2_000_000 in
      let checks = List.map (fun (name, ok) -> (rung_label rate ^ " " ^ name, ok)) p.checks in
      ( {
          rate;
          shed_share = ratio (float p.shed) (float (attempted p));
          p99_us = us (Lat.pct lat 990);
          met = within_2ms && p.run.backlog_ns <= 10_000_000;
        },
        checks ))
    ladder_rates

let per_layer (p : pass) ~untraced_tps ~rungs ~probes =
  let c = float p.tally.committed in
  let per x = ratio x c in
  let last = p.run.last in
  let d = sum p.run.diff and last_mean = mean last and last_sum = sum last in
  let lat = Lat.sorted p.tally.all in
  (* single-node workloads have no ladder: their rungs read 0 *)
  let rungs = if rungs = [] then List.map (fun rate -> { rate; shed_share = 0.0; p99_us = 0.0; met = false }) ladder_rates else rungs in
  let rung_metrics =
    List.concat_map
      (fun r ->
        [
          sim ("shard.shed_share." ^ rung_label r.rate) "share" r.shed_share;
          sim ("shard.p99_us." ^ rung_label r.rate) "us" r.p99_us;
        ])
      rungs
  in
  let max_rate_ok = List.fold_left (fun acc r -> if r.met then Float.max acc r.rate else acc) 0.0 rungs in
  let per_kind =
    List.concat
      (List.mapi
         (fun k name ->
           let s = Lat.sorted p.tally.by_kind.(k) in
           let tail_p, tail = Lat.tail s in
           let pre = "tpcc." ^ name ^ "." and tr = "trace.txn." ^ name ^ "." in
           let total = hist_sum last (tr ^ "total_ns") in
           (* per-registry means, weighted by each registry's span count *)
           let spans snap = sum [ snap ] (tr ^ "committed") +. sum [ snap ] (tr ^ "aborted") +. sum [ snap ] (tr ^ "cancelled") in
           let words = List.fold_left (fun acc snap -> acc +. (spans snap *. sum [ snap ] (tr ^ "alloc.minor_words_per_txn"))) 0.0 last in
           let finished = List.fold_left (fun acc snap -> acc +. spans snap) 0.0 last in
           let alloc = ratio words finished in
           [
             sim (pre ^ "lat_p50_us") "us" (us (Lat.pct s 500));
             sim (pre ^ "lat_tail_us") "us" (us tail);
             sim (pre ^ "lat_tail_pct") "%" (float tail_p /. 10.0);
             sim (pre ^ "wal_wait_share") "share" (ratio (hist_sum last (tr ^ "wal_flush_wait_ns")) total);
             sim (pre ^ "lock_wait_share") "share" (ratio (hist_sum last (tr ^ "lock_wait_ns")) total);
             sim (pre ^ "alloc_words") "words" alloc;
           ])
         (Array.to_list kind_names))
  in
  let span_ms name = host ("span." ^ name ^ ".self_ms") "ms" (float (Span.self_total ~run:!Span.run_id name) /. 1e6) in
  [
    sim "e2e.lat_samples" "count" (float (Array.length lat));
    sim "e2e.lat_p999_us" "us" (us (Lat.pct lat 999));
    host "e2e.host_tps_cpu" "1/s" p.run.host_tps_cpu;
    host "e2e.setup_cpu_s" "s" p.setup.setup_cpu_s;
    host "e2e.calibration_ms" "ms" (p.run.calibration_s *. 1e3);
    host "e2e.peak_heap_mb" "MB" (words_mb (Gc.quick_stat ()).Gc.top_heap_words);
    sim "tpcc.tpmc" "1/min" (ratio (float p.tally.new_orders) (float p.run.virtual_ns /. 60e9));
    sim "tpcc.fail_share" "share" (ratio (float (failed p)) (float (attempted p)));
    sim "runtime.switch_instr_per_txn" "instr" (per (d "sim.instr.switch"));
    sim "runtime.cpu_busy" "share" (last_mean "sched.busy_fraction");
    sim "runtime.timeouts" "count" (d "sched.timeouts");
    sim "storage.buffer_instr_per_txn" "instr" (per (d "sim.instr.buffer"));
    sim "storage.latch_instr_per_txn" "instr" (per (d "sim.instr.latching"));
    sim "storage.data_reads_per_txn" "count" (per (d "io.data.read.ops"));
    sim "storage.evictions_per_txn" "count"
      (per (d "buf.cleaner.clean_evicts" +. d "buf.cleaner.dirty_evict_fallbacks"));
    sim "storage.dirty_evict_fallbacks" "count" (d "buf.cleaner.dirty_evict_fallbacks");
    sim "storage.cleaner_pages_per_batch" "count" (ratio (d "buf.cleaner.pages") (d "buf.cleaner.batches"));
    sim "storage.cleaner_requeue_share" "share" (ratio (d "buf.cleaner.requeued") (d "buf.cleaner.pages"));
    sim "storage.resident_mb" "MB" (last_sum "buf.resident_bytes" /. float mb);
    sim "btree.effective_instr_per_txn" "instr" (per (d "sim.instr.effective"));
    sim "txn.mvcc_instr_per_txn" "instr" (per (d "sim.instr.mvcc"));
    sim "txn.lock_instr_per_txn" "instr" (per (d "sim.instr.locking"));
    sim "txn.gc_instr_per_txn" "instr" (per (d "sim.instr.gc"));
    sim "txn.retry_share" "share" (per (d "txn.abort.deadlock" +. d "txn.abort.conflict"));
    sim "txn.abort.deadlock" "count" (d "txn.abort.deadlock");
    sim "txn.abort.conflict" "count" (d "txn.abort.conflict");
    sim "txn.abort.deadline" "count" (d "txn.deadline_aborts");
    sim "txn.abort.shed" "count" (d "txn.abort.shed");
    sim "txn.abort.user" "count" (d "txn.abort.user");
    sim "wal.records_per_txn" "count" (per (d "wal.records"));
    sim "wal.bytes_per_txn" "bytes" (per (d "wal.bytes"));
    sim "wal.commits_per_flush" "count" (ratio c (d "io.wal.write.ops"));
    sim "wal.rfa_remote_share" "share"
      (ratio (d "wal.rfa.remote_waits") (d "wal.rfa.remote_waits" +. d "wal.rfa.local_commits"));
    sim "wal.instr_per_txn" "instr" (per (d "sim.instr.wal"));
    host "wal.recovery_s" "s" p.recovery.recovery_s;
    sim "wal.recovery_records" "count" (float p.recovery.records);
    host "wal.recovery_records_per_s" "1/s" (ratio (float p.recovery.records) p.recovery.recovery_s);
    sim "wal.recovery_row_mismatch" "count" (float p.recovery.mismatch);
    sim "io.wal.write_ops_per_txn" "count" (per (d "io.wal.write.ops"));
    sim "io.wal.busy" "share" (last_mean "io.wal.busy_fraction");
    sim "io.data.read_ops" "count" (d "io.data.read.ops");
    sim "io.data.write_ops" "count" (d "io.data.write.ops");
    sim "io.data.write_bytes_per_txn" "bytes" (per (d "io.data.write.bytes"));
    sim "io.data.pages_per_submission" "count" (ratio (d "io.data.write.ops") (d "io.data.write.batches"));
    sim "io.data.busy" "share" (last_mean "io.data.busy_fraction");
    sim "io.data_per_wal_byte" "ratio" (ratio (d "io.data.write.bytes") (d "wal.bytes"));
    host "obs.trace_overhead" "ratio" (ratio untraced_tps p.run.host_tps -. 1.0);
    sim "shard.cross_shard_share" "share" (ratio (d "twopc.started") (float p.dtxns));
    sim "shard.twopc_abort_share" "share" (ratio (d "twopc.aborted") (d "twopc.started"));
    sim "shard.prepare_timeouts" "count" (d "twopc.prepare_timeouts");
    sim "shard.exec_timeouts" "count" (d "twopc.exec_timeouts");
    sim "shard.net_msgs_per_txn" "count" (per (d "net.msgs"));
    sim "shard.net_bytes_per_txn" "bytes" (per (d "net.bytes"));
    sim "shard.net_util" "share" (last_mean "net.utilization");
    sim "shard.max_rate_ok" "1/s" max_rate_ok;
  ]
  @ rung_metrics @ per_kind
  @ List.map span_ms [ "create"; "load"; "checkpoint"; "run_for"; "drain"; "checks"; "row_counts"; "crash"; "restore"; "snapshot" ]
  @ [ host "span.submit.ns_per_call" "ns" (Span.submit_ns_per_call ()) ]
  @ List.map (fun (name, ns) -> host name "ns" ns) probes

(* ------------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  checks : (string * bool) list;
}

let result (p : pass) ~metrics ~extra_checks =
  let checks = p.checks @ extra_checks @ [ ("transactions committed", p.tally.committed > 0) ] in
  { correct = List.for_all snd checks; attempted = attempted p; failed = failed p; metrics; checks }

(* The untraced run: end-to-end metrics only. Where the restart is
   gated, it runs and is checked here too, untimed by any metric. *)
let run spec ~seed ~seconds ~quick =
  let p = pass spec ~seed ~sz:(size ~quick spec ~seconds) ~recover:(gated spec) ~traced:false in
  result p ~metrics:(end_to_end p) ~extra_checks:[]

(* The traced run: probes, an untraced pass for the tracing overhead,
   then a pass with the kernel's span plane and the benchmark's host
   spans on, which also crashes and restarts; the sharded workload adds
   its capacity ladder. *)
let trace spec ~seed ~seconds ~quick =
  let sz = size ~quick spec ~seconds in
  let probes = Probes.run ~quota:sz.probe_quota in
  let untraced = pass spec ~seed ~sz ~recover:false ~traced:false in
  let p = Span.record (fun () -> pass spec ~seed ~sz ~recover:true ~traced:true) in
  let rungs, rung_checks =
    match spec.shape with
    | Sharded s -> List.split (ladder s ~seed ~sz)
    | Single _ -> ([], [])
  in
  let extra_checks = ("untraced pass correct", List.for_all snd untraced.checks) :: List.concat rung_checks in
  result p ~metrics:(per_layer p ~untraced_tps:untraced.run.host_tps ~rungs ~probes) ~extra_checks
