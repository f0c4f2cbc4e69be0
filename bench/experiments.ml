(* Reproduction harnesses: one per table/figure of the paper's §9.
   Every harness prints the series the paper plots, next to the paper's
   reported values where it states them. Scaled-down sizes (warehouse
   counts, virtual-time windows, buffer sizes) are printed with each
   experiment; EXPERIMENTS.md records the mapping and the measured
   results. *)
module T = Phoebe_tpcc.Tpcc
module W = Phoebe_workload.Workload
module B = Phoebe_baseline.Baseline
module Db = Phoebe_core.Db
module Config = Phoebe_core.Config
module Table = Phoebe_core.Table
module Scheduler = Phoebe_runtime.Scheduler
module Component = Phoebe_sim.Component
module Counters = Phoebe_sim.Counters
module Device = Phoebe_io.Device
module Wal = Phoebe_wal.Wal
module Value = Phoebe_storage.Value
module Txnmgr = Phoebe_txn.Txnmgr
module Json = Phoebe_util.Json
module Obs = Phoebe_obs.Obs

module Bufmgr = Phoebe_storage.Bufmgr

let mb = 1024 * 1024

(* Experiments append machine-readable results here; main.ml writes the
   collection out when invoked with [--json <path>]. Only simulated
   (deterministic) quantities go in — never wall-clock time — so two
   runs with the same seed emit byte-identical files. *)
let json_results : (string * Json.t) list ref = ref []
let add_json name v = json_results := !json_results @ [ (name, v) ]
let json_output () = Json.Obj !json_results

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* Command-line overrides ([--deadline-ms], [--admission]): applied to
   every experiment config, so any harness can be rerun with transaction
   deadlines or admission control switched on. Both default off — the
   published experiment numbers are produced with the features disabled
   (and the sim is bit-identical to a build without the wait core). *)
let opt_deadline_ms : int option ref = ref None
let opt_admission = ref false

(* [--sanitize]: run with the kernel sanitizer plane enabled. The hooks
   are pure OCaml mutation — no engine events, no instruction charges —
   so throughput numbers remain comparable (EXPERIMENTS.md bounds the
   overhead), and the registry export gains the sanitize.* counters,
   including the replay digest tier1.sh compares across double runs. *)
let opt_sanitize = ref false

(* Workload seed ([--seed <n>], default 42): drives transaction mixes,
   keys and think times in every harness. Same seed, same config =>
   byte-identical --json output. *)
let opt_seed = ref 42

let phoebe_config ~warehouses ~workers ~slots ~buffer_mb =
  ignore warehouses;
  let cfg =
    {
      Config.default with
      Config.n_workers = workers;
      slots_per_worker = slots;
      buffer_bytes = buffer_mb * mb;
    }
  in
  let cfg =
    match !opt_deadline_ms with
    | Some ms -> { cfg with Config.txn_deadline_ns = ms * 1_000_000 }
    | None -> cfg
  in
  let cfg =
    if !opt_admission then
      { cfg with
        Config.admission = { Config.enabled = true; max_inflight = 0; max_lock_wait_p95_ns = 0 }
      }
    else cfg
  in
  if !opt_sanitize then { cfg with Config.sanitize = true } else cfg

(* Aborts broken down by reason, for the machine-readable output. *)
let abort_reasons_json db =
  let tm = Db.txnmgr db in
  Json.Obj
    (List.map
       (fun r -> (Txnmgr.reason_label r, Json.Int (Txnmgr.stats_aborted_for tm r)))
       [ Txnmgr.Deadlock; Txnmgr.Deadline; Txnmgr.Shed; Txnmgr.Conflict; Txnmgr.User ])

let load_tpcc cfg ~warehouses =
  let db = Db.create cfg in
  (db, T.load db ~warehouses ~scale:T.default_scale ~seed:!opt_seed ())

let run_tpcc ?(affinity = true) t ~workers ~slots ~seconds =
  T.run_mix t ~affinity
    ~concurrency:(workers * min slots 16)
    ~duration_ns:(int_of_float (seconds *. 1e9))
    ~seed:!opt_seed ()

(* ------------------------------------------------------------------ *)
(* Exp 1 / Figure 7(a): tpmC at warehouses = workers *)

let exp1 () =
  section "Exp 1 (Fig 7a): tpmC, warehouses = worker threads";
  note "paper: 349k / 3362k / 6903k / 11578k / 13690k tpmC at W=T of 1/10/25/50/100";
  note "%-6s %-8s %12s %12s %8s" "W=T" "virt-s" "tpmC" "tpm-total" "cpu%%";
  let paper = [ (1, 349); (10, 3362); (25, 6903); (50, 11578); (100, 13690) ] in
  let points = ref [] in
  List.iter
    (fun (w, paper_ktpmc) ->
      let slots = 32 in
      let seconds = if w <= 10 then 0.5 else 0.25 in
      let cfg = phoebe_config ~warehouses:w ~workers:w ~slots ~buffer_mb:(max 16 (4 * w)) in
      let db, t = load_tpcc cfg ~warehouses:w in
      let r = run_tpcc t ~workers:w ~slots ~seconds in
      let s = Db.stats db in
      note "%-6d %-8.2f %12.0f %12.0f %7.1f%%   (paper: %dk tpmC)" w r.T.duration_s r.T.tpmc
        r.T.tpm_total
        (100.0 *. s.Db.cpu_busy_fraction)
        paper_ktpmc;
      points :=
        !points
        @ [
            Json.Obj
              [
                ("warehouses", Json.Int w);
                ("virtual_s", Json.Float r.T.duration_s);
                ("tpmc", Json.Float r.T.tpmc);
                ("tpm_total", Json.Float r.T.tpm_total);
                ("aborts_by_reason", abort_reasons_json db);
                (* the whole observability plane, including the
                   trace.txn.<kind>.* span percentiles *)
                ("registry", Obs.to_json (Db.obs db));
              ];
          ];
      let checks = T.consistency_checks t in
      if List.exists (fun (_, ok) -> not ok) checks then
        note "  !! consistency violated: %s"
          (String.concat ", " (List.filter_map (fun (n, ok) -> if ok then None else Some n) checks)))
    paper;
  add_json "exp1" (Json.List !points)

(* ------------------------------------------------------------------ *)
(* Exp 2 / Figure 8: scalability in worker count (knee at 52 cores) *)

let exp2 () =
  section "Exp 2 (Fig 8): scalability with worker count";
  note "paper: near-linear to 52 workers (physical cores), slower but still rising to 104";
  note "%-8s %12s %14s" "workers" "tpm-total" "tpm/worker";
  List.iter
    (fun workers ->
      let w = workers in
      let cfg = phoebe_config ~warehouses:w ~workers ~slots:32 ~buffer_mb:(max 16 (4 * w)) in
      let _, t = load_tpcc cfg ~warehouses:w in
      let r = run_tpcc t ~workers ~slots:32 ~seconds:0.2 in
      note "%-8d %12.0f %14.0f" workers r.T.tpm_total (r.T.tpm_total /. float_of_int workers))
    [ 1; 13; 26; 39; 52; 78; 104 ]

(* ------------------------------------------------------------------ *)
(* Exp 3 / Figure 7(b): WAL flushing throughput over time *)

let exp3 () =
  section "Exp 3 (Fig 7b): WAL flushing throughput (dedicated WAL device)";
  note "paper: stable ~1800 MB/s (130k IOPS) on the PM9A3 via io_uring; our logical";
  note "records are far smaller than their physical page deltas, so the magnitude is";
  note "lower -- the reproduced property is the *stable plateau* over the whole run.";
  let workers = 26 in
  let cfg = phoebe_config ~warehouses:workers ~workers ~slots:32 ~buffer_mb:128 in
  let db, t = load_tpcc cfg ~warehouses:workers in
  let r = run_tpcc t ~workers ~slots:32 ~seconds:1.0 in
  let series = Device.throughput_series (Db.wal_device db) Device.Write in
  let mbps = List.map snd series in
  let avg = List.fold_left ( +. ) 0.0 mbps /. float_of_int (max 1 (List.length mbps)) in
  let mx = List.fold_left Float.max 0.0 mbps in
  let mn = List.fold_left Float.min infinity mbps in
  note "run: %.2f virtual s at %.0f tpm; WAL volume %.1f MB in %d records" r.T.duration_s
    r.T.tpm_total
    (float_of_int (Db.stats db).Db.wal_bytes /. 1e6)
    (Db.stats db).Db.wal_records;
  note "WAL write throughput: avg %.1f MB/s, min %.1f, max %.1f (%d samples)" avg mn mx
    (List.length mbps);
  note "  stability (max/avg): %.2fx  (flat plateau expected)" (mx /. Float.max 1e-9 avg);
  note "  device ops: %d writes (%.0f kIOPS avg)"
    (Device.total_ops (Db.wal_device db) Device.Write)
    (float_of_int (Device.total_ops (Db.wal_device db) Device.Write) /. r.T.duration_s /. 1e3)

(* ------------------------------------------------------------------ *)
(* Exp 4 / Figure 7(c,d): data-device throughput once data outgrows the buffer *)

let exp4_run ~cleaner_enabled =
  let workers = 10 in
  (* deliberately small buffer: the order/orderline/history growth spills *)
  let cfg = phoebe_config ~warehouses:workers ~workers ~slots:32 ~buffer_mb:6 in
  let cfg =
    { cfg with Config.cleaner = { Bufmgr.default_cleaner with Bufmgr.cl_enabled = cleaner_enabled } }
  in
  let db, t = load_tpcc cfg ~warehouses:workers in
  let r = run_tpcc t ~workers ~slots:32 ~seconds:2.0 in
  let dev = Db.data_device db in
  let write_ops = Device.total_ops dev Device.Write in
  let write_batches = Device.total_batches dev Device.Write in
  let pages_per_submission = float_of_int write_ops /. float_of_int (max 1 write_batches) in
  let cs = Db.cleaner_stats db in
  let reads = Device.throughput_series dev Device.Read in
  let writes = Device.throughput_series dev Device.Write in
  let tpms = T.throughput_series t in
  let lookup s x = match List.assoc_opt x s with Some v -> v | None -> 0.0 in
  note "\ncleaner %s: %.2f virtual s, %.0f tpmC avg"
    (if cleaner_enabled then "ON " else "OFF")
    r.T.duration_s r.T.tpmc;
  note "%-8s %14s %14s %14s" "virt-s" "read MB/s" "write MB/s" "txn/s";
  List.iter
    (fun (sec, txns) ->
      note "%-8.0f %14.1f %14.1f %14.0f" sec (lookup reads sec) (lookup writes sec) txns)
    tpms;
  note "buffer resident: %.1f MB of %.1f MB budget; data page file: %.1f MB"
    (float_of_int (Db.stats db).Db.buffer_resident_bytes /. 1e6)
    (float_of_int (Db.config db).Config.buffer_bytes /. 1e6)
    (float_of_int (Phoebe_io.Pagestore.stored_bytes (Bufmgr.store (Db.buffer db))) /. 1e6);
  note "data device: %d page writes in %d submissions (%.1f pages/submission)" write_ops
    write_batches pages_per_submission;
  note
    "cleaner: %d batches, %d pages cleaned, %d requeued; evictions %d clean / %d inline-write"
    cs.Bufmgr.batches_submitted cs.Bufmgr.pages_cleaned cs.Bufmgr.pages_requeued
    cs.Bufmgr.clean_evicts cs.Bufmgr.dirty_evict_fallbacks;
  let series_json =
    Json.List
      (List.map
         (fun (sec, txns) ->
           Json.Obj
             [
               ("virt_s", Json.Float sec);
               ("read_mb_s", Json.Float (lookup reads sec));
               ("write_mb_s", Json.Float (lookup writes sec));
               ("txn_s", Json.Float txns);
             ])
         tpms)
  in
  let run_json =
    Json.Obj
      [
        ("cleaner_enabled", Json.Bool cleaner_enabled);
        ("duration_virtual_s", Json.Float r.T.duration_s);
        ("tpmc", Json.Float r.T.tpmc);
        ("tpm_total", Json.Float r.T.tpm_total);
        ("committed", Json.Int r.T.total_committed);
        ("aborted", Json.Int r.T.aborted);
        ("series", series_json);
        ( "data_device",
          Json.Obj
            [
              ("write_ops", Json.Int write_ops);
              ("write_batches", Json.Int write_batches);
              ("pages_per_submission", Json.Float pages_per_submission);
              ("read_ops", Json.Int (Device.total_ops dev Device.Read));
              ("read_batches", Json.Int (Device.total_batches dev Device.Read));
            ] );
        ( "cleaner",
          Json.Obj
            [
              ("batches_submitted", Json.Int cs.Bufmgr.batches_submitted);
              ("pages_cleaned", Json.Int cs.Bufmgr.pages_cleaned);
              ("pages_requeued", Json.Int cs.Bufmgr.pages_requeued);
              ("clean_evicts", Json.Int cs.Bufmgr.clean_evicts);
              ("dirty_evict_fallbacks", Json.Int cs.Bufmgr.dirty_evict_fallbacks);
            ] );
        ("buffer_resident_bytes", Json.Int (Db.stats db).Db.buffer_resident_bytes);
      ]
  in
  (r, run_json)

let exp4 () =
  section "Exp 4 (Fig 7c,d): data exchange between Main Storage and disk";
  note "paper: exchange starts ~2 min in, tpmC dips then stabilises; writes plateau,";
  note "reads grow as the working set exceeds the buffer. (Timescale compressed here.)";
  note "(before/after: inline write-back on eviction vs batched background cleaner)";
  let r_off, json_off = exp4_run ~cleaner_enabled:false in
  let r_on, json_on = exp4_run ~cleaner_enabled:true in
  note "\ncleaner speedup: %.2fx tpmC (%.0f -> %.0f)"
    (r_on.T.tpmc /. Float.max 1.0 r_off.T.tpmc)
    r_off.T.tpmc r_on.T.tpmc;
  add_json "exp4"
    (Json.Obj
       [
         ( "config",
           Json.Obj
             [
               ("workers", Json.Int 10);
               ("buffer_mb", Json.Int 6);
               ("virtual_seconds", Json.Float 2.0);
               ("seed", Json.Int !opt_seed);
             ] );
         ("runs", Json.List [ json_off; json_on ]);
       ])

(* ------------------------------------------------------------------ *)
(* Exp 5 / Figure 10: throughput vs buffer size *)

let exp5 () =
  section "Exp 5 (Fig 10): performance under different buffer sizes";
  note "paper: 100 WH, buffer 4GB->100GB; tpm rises, diminishing returns past 25GB";
  note "(scaled: 25 WH, buffer in MB; the knee sits where the hot set fits)";
  note "%-12s %12s" "buffer MB" "tpm-total";
  List.iter
    (fun buffer_mb ->
      let workers = 25 in
      let cfg = phoebe_config ~warehouses:workers ~workers ~slots:32 ~buffer_mb in
      let _, t = load_tpcc cfg ~warehouses:workers in
      let r = run_tpcc t ~workers ~slots:32 ~seconds:0.4 in
      note "%-12d %12.0f" buffer_mb r.T.tpm_total)
    [ 2; 4; 8; 16; 32; 64; 100 ]

(* ------------------------------------------------------------------ *)
(* Exp 6 / Figure 11: co-routine vs thread model *)

let exp6 () =
  section "Exp 6 (Fig 11): co-routine vs thread execution model";
  note "paper: 100 workers x 32 slots (coroutine) vs 3200 threads x 1 slot, affinity off;";
  note "the coroutine model wins on user-level switching. (Scaled: 8x32 vs 256x1.)";
  (* both models get the same 8 scaled cores: 8 co-routine workers on
     dedicated cores vs 256 threads time-sharing them *)
  let cpu8 =
    { Phoebe_runtime.Cpu.default with Phoebe_runtime.Cpu.physical_cores = 8; virtual_cores = 8 }
  in
  let run name cfg concurrency =
    let db = Db.create cfg in
    let t = T.load db ~warehouses:8 ~scale:T.default_scale ~seed:!opt_seed () in
    let r =
      T.run_mix t ~affinity:false ~concurrency ~duration_ns:(int_of_float 0.4e9) ~seed:!opt_seed ()
    in
    note "%-22s %12.0f tpm   (p99 %.0f us, switch instr/txn %d)" name r.T.tpm_total
      r.T.latency_p99_us
      (Counters.get (Scheduler.counters (Db.scheduler db)) Component.Switch
      / max 1 r.T.total_committed);
    r.T.tpm_total
  in
  let coroutine =
    run "coroutine 8x32"
      { Config.default with Config.n_workers = 8; slots_per_worker = 32; cpu = cpu8;
        buffer_bytes = 64 * mb }
      256
  in
  let thread =
    run "thread 256x1"
      {
        Config.default with
        Config.n_workers = 256;
        slots_per_worker = 1;
        model = Scheduler.Thread;
        cpu = cpu8;
        buffer_bytes = 64 * mb;
      }
      256
  in
  note "coroutine / thread = %.2fx  (paper: clearly higher tpm in the co-routine model)"
    (coroutine /. Float.max 1.0 thread)

(* ------------------------------------------------------------------ *)
(* Exp 7 / Figure 12: instruction breakdown per transaction *)

let exp7 () =
  section "Exp 7 (Fig 12): instruction breakdown per TPC-C transaction";
  note "paper: affinity=true  -> effective computation 60.8%%, no visible locking;";
  note "       affinity=false -> locking appears, higher WAL, effective 56.5%%";
  let run affinity =
    let workers = 8 in
    let cfg = phoebe_config ~warehouses:workers ~workers ~slots:32 ~buffer_mb:64 in
    let db, t = load_tpcc cfg ~warehouses:workers in
    let before = Counters.snapshot (Scheduler.counters (Db.scheduler db)) in
    let r = run_tpcc ~affinity t ~workers ~slots:32 ~seconds:0.4 in
    let diff = Counters.diff before (Counters.snapshot (Scheduler.counters (Db.scheduler db))) in
    (r, diff)
  in
  List.iter
    (fun affinity ->
      let r, diff = run affinity in
      note "\naffinity=%b  (%d committed, %d aborted)" affinity r.T.total_committed r.T.aborted;
      List.iter
        (fun (c, instr, share) ->
          note "  %-10s %9d instr/txn  %5.1f%%" (Component.to_string c)
            (instr / max 1 r.T.total_committed)
            (100.0 *. share))
        (Counters.breakdown diff))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Exp 8 / Figure 9: PhoebeDB vs PostgreSQL-style baseline *)

let exp8 () =
  section "Exp 8 (Fig 9): transactions vs PostgreSQL-style baseline";
  note "paper: 30M tpm vs 1.1M tpm (27x); Payment cycles 2.5x lower, NewOrder 5.6x lower";
  let workers = 26 in
  let run name cfg =
    let db = Db.create cfg in
    let t = T.load db ~warehouses:workers ~scale:T.default_scale ~seed:!opt_seed () in
    let r = run_tpcc t ~workers ~slots:(cfg.Config.slots_per_worker) ~seconds:0.3 in
    note "%-14s %12.0f tpm  (cpu %.0f%%)" name r.T.tpm_total
      (100.0 *. (Db.stats db).Db.cpu_busy_fraction);
    r.T.tpm_total
  in
  let phoebe = run "PhoebeDB" (phoebe_config ~warehouses:workers ~workers ~slots:32 ~buffer_mb:104) in
  let pg = run "pg-like" (B.pg_like ~workers ~buffer_bytes:(104 * mb) ()) in
  note "throughput ratio: %.1fx  (paper: 27x)" (phoebe /. Float.max 1.0 pg);
  (* per-transaction cycles for Payment and NewOrder (Figure 9) *)
  let cycles cfg kind =
    let db = Db.create cfg in
    let t = T.load db ~warehouses:4 ~scale:T.default_scale ~seed:!opt_seed () in
    let before = Counters.snapshot (Scheduler.counters (Db.scheduler db)) in
    let r =
      T.run_mix t ~mix:[ (kind, 1.0) ] ~concurrency:16 ~duration_ns:(int_of_float 0.2e9) ~seed:!opt_seed ()
    in
    let diff = Counters.diff before (Counters.snapshot (Scheduler.counters (Db.scheduler db))) in
    float_of_int (Array.fold_left ( + ) 0 diff) /. float_of_int (max 1 r.T.total_committed)
  in
  let phoebe_cfg = phoebe_config ~warehouses:4 ~workers:4 ~slots:8 ~buffer_mb:32 in
  let pg_cfg = B.pg_like ~workers:4 () in
  List.iter
    (fun (kind, paper_ratio) ->
      let p = cycles phoebe_cfg kind and g = cycles pg_cfg kind in
      note "%-10s instructions/txn: PhoebeDB %8.0f  pg-like %8.0f  ratio %.1fx (paper %.1fx)"
        (T.kind_name kind) p g (g /. Float.max 1.0 p) paper_ratio)
    [ (T.Payment, 2.5); (T.New_order, 5.6) ]

(* ------------------------------------------------------------------ *)
(* Exp 9: commercial "O-DB" baseline, I/O bound at ~77% CPU *)

let exp9 () =
  section "Exp 9: commercial-RDBMS baseline (O-DB)";
  note "paper: O-DB peaks at 3.2M tpm and uses only ~77%% of CPU (I/O bandwidth bound)";
  let workers = 26 in
  let cfg = B.odb_like ~workers ~buffer_bytes:(16 * mb) () in
  let db = Db.create cfg in
  let t = T.load db ~warehouses:workers ~scale:T.default_scale ~seed:!opt_seed () in
  let r = run_tpcc t ~workers ~slots:1 ~seconds:0.3 in
  let s = Db.stats db in
  note "O-DB-like: %.0f tpm, cpu %.0f%%, data device busy %.0f%%" r.T.tpm_total
    (100.0 *. s.Db.cpu_busy_fraction)
    (100.0 *. Device.busy_fraction (Db.data_device db));
  note "(shape: throughput capped by the storage stack while CPUs sit partly idle)"

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out *)

let ablation_rfa () =
  section "Ablation: Remote Flush Avoidance (RFA) on/off";
  note "RFA lets independent commits wait only for their own WAL writer; without it";
  note "every commit waits for the global durable-GSN floor.";
  let run name rfa =
    let cfg =
      { (phoebe_config ~warehouses:8 ~workers:8 ~slots:32 ~buffer_mb:64) with
        Config.wal = { Wal.default_config with Wal.rfa } }
    in
    let db = Db.create cfg in
    let t = T.load db ~warehouses:8 ~scale:T.default_scale ~seed:!opt_seed () in
    let r = run_tpcc t ~workers:8 ~slots:32 ~seconds:0.3 in
    let s = Db.stats db in
    note "%-10s %10.0f tpm   p99 %6.0f us   rfa-local %d / remote %d" name r.T.tpm_total
      r.T.latency_p99_us s.Db.rfa_local_commits s.Db.rfa_remote_waits;
    r.T.tpm_total
  in
  let on = run "RFA on" true in
  let off = run "RFA off" false in
  note "speedup from RFA: %.2fx" (on /. Float.max 1.0 off)

let ablation_snapshot () =
  section "Ablation: O(1) timestamp snapshots vs active-transaction scanning";
  let run name snapshot_mode =
    let cfg = { (phoebe_config ~warehouses:8 ~workers:8 ~slots:32 ~buffer_mb:64) with
                Config.snapshot_mode } in
    let db = Db.create cfg in
    let t = T.load db ~warehouses:8 ~scale:T.default_scale ~seed:!opt_seed () in
    let before = Counters.snapshot (Scheduler.counters (Db.scheduler db)) in
    let r = run_tpcc t ~workers:8 ~slots:32 ~seconds:0.3 in
    let diff = Counters.diff before (Counters.snapshot (Scheduler.counters (Db.scheduler db))) in
    let mvcc_share =
      List.assoc Component.Mvcc (List.map (fun (c, _, s) -> (c, s)) (Counters.breakdown diff))
    in
    note "%-22s %10.0f tpm   mvcc share %.1f%%" name r.T.tpm_total (100.0 *. mvcc_share);
    r.T.tpm_total
  in
  let o1 = run "O(1) timestamp" Txnmgr.O1_timestamp in
  let scan = run "scan active txns" Txnmgr.Scan_active in
  note "speedup from O(1) snapshots: %.2fx (grows with concurrency)" (o1 /. Float.max 1.0 scan)

let ablation_lock_table () =
  section "Ablation: decentralized locks vs global lock table";
  let run name lock_style =
    let cfg = { (phoebe_config ~warehouses:8 ~workers:8 ~slots:32 ~buffer_mb:64) with
                Config.lock_style } in
    let db = Db.create cfg in
    let t = T.load db ~warehouses:8 ~scale:T.default_scale ~seed:!opt_seed () in
    let r = run_tpcc t ~workers:8 ~slots:32 ~seconds:0.3 in
    note "%-22s %10.0f tpm" name r.T.tpm_total;
    r.T.tpm_total
  in
  let dec = run "decentralized (7.2)" Config.Decentralized in
  let glob =
    run "global lock table"
      (Config.Global_serialized { lock_hold_ns = 800; snapshot_hold_ns = 0 })
  in
  note "speedup from decentralization: %.2fx" (dec /. Float.max 1.0 glob)

let ablation_swizzling () =
  section "Ablation: pointer swizzling vs global page hash table";
  note "(modelled as the per-access cost of a hash probe + latch vs a direct pointer)";
  let run name buffer_hit =
    let cost = { Phoebe_sim.Cost.default with Phoebe_sim.Cost.buffer_hit } in
    let cfg = { (phoebe_config ~warehouses:8 ~workers:8 ~slots:32 ~buffer_mb:64) with Config.cost } in
    let db = Db.create cfg in
    let t = T.load db ~warehouses:8 ~scale:T.default_scale ~seed:!opt_seed () in
    let r = run_tpcc t ~workers:8 ~slots:32 ~seconds:0.3 in
    ignore db;
    note "%-26s %10.0f tpm" name r.T.tpm_total;
    r.T.tpm_total
  in
  let swizzled = run "swizzled pointer (250)" 250 in
  let hashed = run "global hash probe (1300)" 1300 in
  note "speedup from swizzling: %.2fx" (swizzled /. Float.max 1.0 hashed)

let ablation_freeze () =
  section "Ablation: temperature tiers (frozen compression)";
  let cfg = { Config.default with Config.n_workers = 2; slots_per_worker = 8; buffer_bytes = mb } in
  let db = Db.create cfg in
  let events =
    Db.create_table db ~name:"events" ~schema:[ ("ts", Value.T_int); ("kind", Value.T_str) ]
  in
  Db.with_txn db (fun txn ->
      for i = 1 to 30_000 do
        ignore
          (Table.insert events txn
             [| Value.Int i; Value.Str (Printf.sprintf "kind-%d" (i mod 5)) |])
      done);
  let tree = Table.tree events in
  for _ = 1 to 8 do
    Phoebe_btree.Table_tree.decay_access_counts tree
  done;
  let resident_before = (Db.stats db).Db.buffer_resident_bytes in
  let frozen = Db.freeze_tables db in
  note "froze %d of 30000 tuples into %d blocks; compression %.1fx" frozen
    (Phoebe_btree.Table_tree.frozen_block_count tree)
    (Phoebe_btree.Table_tree.compression_ratio tree);
  note "buffer resident: %.0f KB -> %.0f KB (frozen blocks live off the page buffer)"
    (float_of_int resident_before /. 1024.0)
    (float_of_int (Db.stats db).Db.buffer_resident_bytes /. 1024.0);
  (* scans over frozen data do not warm the buffer (paper 5.2) *)
  let before = (Db.stats db).Db.buffer_resident_bytes in
  Db.with_txn db (fun txn ->
      let n = ref 0 in
      Table.scan events txn (fun _ _ -> incr n);
      note "full scan across tiers saw %d rows" !n);
  note "buffer resident after scan: %.0f KB (scan did not warm data: delta %.0f KB)"
    (float_of_int (Db.stats db).Db.buffer_resident_bytes /. 1024.0)
    (float_of_int ((Db.stats db).Db.buffer_resident_bytes - before) /. 1024.0)

let ablation_htap () =
  section "Ablation: HTAP columnar scan vs row-wise scan";
  note "(the PAX + frozen-compression design the paper motivates for future HTAP)";
  let module A = Phoebe_analytics.Analytics in
  let cfg = { Config.default with Config.n_workers = 2; slots_per_worker = 8 } in
  let db = Db.create cfg in
  let t =
    Db.create_table db ~name:"facts" ~schema:[ ("k", Value.T_int); ("x", Value.T_float) ]
  in
  Db.with_txn db (fun txn ->
      for k = 1 to 50_000 do
        ignore (Table.insert t txn [| Value.Int k; Value.Float (float_of_int (k mod 997)) |])
      done);
  for _ = 1 to 8 do
    Phoebe_btree.Table_tree.decay_access_counts (Table.tree t)
  done;
  ignore (Db.freeze_tables db);
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  Db.with_txn db (fun txn ->
      let colsum, ct = time (fun () -> (A.aggregate_column db t txn ~col:"x").A.sum) in
      let rowsum, rt =
        time (fun () ->
            let s = ref 0.0 in
            Table.scan t txn (fun _ row ->
                match row.(1) with Value.Float x -> s := !s +. x | _ -> ());
            !s)
      in
      note "50k rows (%.1fx compressed frozen): columnar %.2f ms, row-wise %.2f ms (%.0fx)"
        (Phoebe_btree.Table_tree.compression_ratio (Table.tree t))
        (ct *. 1e3) (rt *. 1e3)
        (rt /. Float.max 1e-9 ct);
      if abs_float (colsum -. rowsum) > 1e-6 then note "  !! sums disagree")

(* ------------------------------------------------------------------ *)
(* Overload: tpm and p99 vs offered load, admission control on vs off.

   Offered load (virtual users, zero think time) sweeps well past the
   task-slot supply. Without protection every arrival is admitted, the
   lock and slot queues back up, and tail latency grows with the
   backlog. With the protections on — a per-transaction deadline plus
   admission control capping in-flight transactions — excess arrivals
   are shed at the door (retried by the driver with backoff) and
   stragglers are cut at the deadline, so committed throughput holds
   and the p99 of admitted work stays bounded. *)

let overload () =
  section "Overload: offered-load sweep, admission control on vs off";
  let w = 2 and workers = 2 and slots = 4 in
  let seconds = 0.3 in
  let loads = [ 8; 32; 128 ] in
  note "%-10s %-6s %12s %12s %8s %10s %8s" "admission" "users" "tpm-total" "p99-us" "sheds"
    "dl-aborts" "aborted";
  let run_point ~admission users =
    let cfg = phoebe_config ~warehouses:w ~workers ~slots ~buffer_mb:16 in
    let cfg =
      if admission then
        {
          cfg with
          Config.txn_deadline_ns = 2_000_000;
          admission =
            {
              Config.enabled = true;
              max_inflight = 2 * workers * slots;
              max_lock_wait_p95_ns = 0;
            };
        }
      else cfg
    in
    let db, t = load_tpcc cfg ~warehouses:w in
    let r = T.run_mix t ~concurrency:users ~duration_ns:(int_of_float (seconds *. 1e9)) ~seed:!opt_seed () in
    note "%-10s %-6d %12.0f %12.1f %8d %10d %8d"
      (if admission then "on" else "off")
      users r.T.tpm_total r.T.latency_p99_us r.T.sheds r.T.deadline_aborts r.T.aborted;
    Json.Obj
      [
        ("admission", Json.Bool admission);
        ("users", Json.Int users);
        ("virtual_s", Json.Float r.T.duration_s);
        ("tpm_total", Json.Float r.T.tpm_total);
        ("latency_p50_us", Json.Float r.T.latency_p50_us);
        ("latency_p99_us", Json.Float r.T.latency_p99_us);
        ("sheds", Json.Int r.T.sheds);
        ("deadline_aborts", Json.Int r.T.deadline_aborts);
        ("aborts_by_reason", abort_reasons_json db);
      ]
  in
  let points =
    List.concat_map
      (fun u ->
        let off = run_point ~admission:false u in
        let on = run_point ~admission:true u in
        [ off; on ])
      loads
  in
  add_json "overload" (Json.List points)

(* ------------------------------------------------------------------ *)
(* Tier-1 smoke: a 5-virtual-second single-point Exp 1 run at W=2.
   Exercises the same path as [exp1] — mix driver, consistency checks,
   full registry export — at a scale CI can afford, so `tier1.sh` can
   validate the emitted JSON on every change. *)

let smoke () =
  section "Smoke (tier-1): 5 virtual seconds of Exp 1 shape at W=2";
  let w = 2 and slots = 8 in
  let cfg = phoebe_config ~warehouses:w ~workers:w ~slots ~buffer_mb:16 in
  let db, t = load_tpcc cfg ~warehouses:w in
  let r = run_tpcc t ~workers:w ~slots ~seconds:5.0 in
  let s = Db.stats db in
  note "%-6d %-8.2f %12.0f %12.0f %7.1f%%" w r.T.duration_s r.T.tpmc r.T.tpm_total
    (100.0 *. s.Db.cpu_busy_fraction);
  let checks = T.consistency_checks t in
  if List.exists (fun (_, ok) -> not ok) checks then
    note "  !! consistency violated: %s"
      (String.concat ", " (List.filter_map (fun (n, ok) -> if ok then None else Some n) checks));
  add_json "exp1"
    (Json.List
       [
         Json.Obj
           [
             ("warehouses", Json.Int w);
             ("virtual_s", Json.Float r.T.duration_s);
             ("tpmc", Json.Float r.T.tpmc);
             ("tpm_total", Json.Float r.T.tpm_total);
             ("aborts_by_reason", abort_reasons_json db);
             ("registry", Obs.to_json (Db.obs db));
           ];
       ])

(* ------------------------------------------------------------------ *)
(* Recovery: WAL replay vs checkpoint cadence. A fixed insert/update
   workload runs to completion, re-checkpointing after every N commits;
   power fails after the last commit and the instance is restored from
   the newest snapshot. Everything reported is a deterministic count
   (records, operations, bytes) — never wall time — so tier1.sh can
   gate on the emitted JSON. *)

let recovery () =
  section "Recovery: WAL replay vs checkpoint cadence";
  let n_base = 64 and n_txns = 150 in
  let cfg = { Config.default with Config.n_workers = 2; slots_per_worker = 4 } in
  note "  %d transactions (1 update + 0-2 inserts each), power loss after the last commit" n_txns;
  note "%-10s %10s %10s %12s %14s %12s %8s" "ckpt every" "snapshots" "committed" "wal_durable" "records_read" "ops_replayed" "rows";
  let module Checkpoint = Phoebe_core.Checkpoint in
  let module Recovery = Phoebe_wal.Recovery in
  let run_point every =
    let db = Db.create cfg in
    let t = Db.create_table db ~name:"kv" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
    Db.create_index db t ~name:"kv_pk" ~cols:[ "k" ] ~unique:true;
    let rng = Phoebe_util.Prng.create ~seed:!opt_seed in
    Db.with_txn db (fun txn ->
        for k = 1 to n_base do
          ignore (Phoebe_core.Table.insert t txn [| Value.Int k; Value.Int 0 |])
        done);
    let snapshot = ref (Checkpoint.take db) in
    let snapshots = ref 1 in
    let inserted = ref 0 in
    for i = 1 to n_txns do
      (* the fiber path: sync commits actually wait for WAL durability,
         so the crash below loses nothing that was acknowledged *)
      let n_ins = Phoebe_util.Prng.int rng 3 in
      Db.submit db (fun txn ->
          (match
             Phoebe_core.Table.index_lookup_first t txn ~index:"kv_pk"
               ~key:[ Value.Int (1 + (i mod n_base)) ]
           with
          | Some (rid, _) ->
            ignore (Phoebe_core.Table.update t txn ~rid [ ("v", Value.Int i) ])
          | None -> ());
          for j = 0 to n_ins - 1 do
            ignore
              (Phoebe_core.Table.insert t txn [| Value.Int (1_000 + (i * 4) + j); Value.Int i |])
          done);
      inserted := !inserted + n_ins;
      if every > 0 && i mod every = 0 then begin
        Db.run db;
        snapshot := Checkpoint.take db;
        incr snapshots
      end
    done;
    Db.run db;
    let report = Db.crash db in
    let wal_durable =
      List.fold_left (fun acc (_, survive, _) -> acc + survive) 0 report.Db.wal_files
    in
    let db2, rep = Checkpoint.restore ~from:db ~snapshot:!snapshot cfg in
    let rows =
      Db.with_txn db2 (fun txn ->
          let n = ref 0 in
          Phoebe_core.Table.scan (Db.table db2 "kv") txn (fun _ _ -> incr n);
          !n)
    in
    let expect = n_base + !inserted in
    note "%-10d %10d %10d %12d %14d %12d %8d%s" every !snapshots n_txns wal_durable
      rep.Recovery.records_read rep.Recovery.ops_replayed rows
      (if rows = expect then "" else Printf.sprintf "  !! expected %d" expect);
    Json.Obj
      [
        ("checkpoint_every", Json.Int every);
        ("snapshots", Json.Int !snapshots);
        ("committed_txns", Json.Int n_txns);
        ("wal_durable_bytes", Json.Int wal_durable);
        ("records_read", Json.Int rep.Recovery.records_read);
        ("ops_replayed", Json.Int rep.Recovery.ops_replayed);
        ("ops_dropped", Json.Int rep.Recovery.ops_dropped);
        ("replayed_committed_txns", Json.Int rep.Recovery.committed_txns);
        ("rows_recovered", Json.Int rows);
        ("rows_expected", Json.Int expect);
      ]
  in
  add_json "recovery" (Json.List (List.map run_point [ 0; 16; 64 ]))

(* ------------------------------------------------------------------ *)
(* Sharded scale-out: shards × offered-load grid under the open-loop
   generator, ~10% of NewOrder/Payment traffic crossing shards via
   two-phase commit. Each cell names its saturating resource — the
   hottest of per-shard CPU, WAL device, data device, the network
   fabric, and the admission valve — so the table reads as a scaling
   story, not just a throughput grid. All quantities are simulated;
   fixed seed => byte-identical JSON. *)

let sharded () =
  let module Cluster = Phoebe_shard.Cluster in
  let module TS = Phoebe_tpcc.Tpcc_sharded in
  let module Open_loop = Phoebe_workload.Open_loop in
  let module Engine = Phoebe_sim.Engine in
  section "Sharded: shards x offered load, open loop, cross-shard 2PC";
  let wps = 2 and workers = 2 and slots = 4 in
  let seconds = 0.3 in
  let shard_grid = [ 1; 2; 4 ] in
  let load_grid = [ 1000.0; 4000.0; 16000.0 ] in
  note "  %d warehouses/shard, %.1f virtual s/cell, ~10%% of NewOrder/Payment cross-warehouse" wps
    seconds;
  note "%-7s %-9s %9s %7s %7s %7s %8s %8s %10s %-10s" "shards" "offer/s" "committed" "shed"
    "2pc" "2pc-ab" "p99-ms" "net-msgs" "tpmC" "saturated";
  let run_cell k offered =
    let cfg = phoebe_config ~warehouses:(k * wps) ~workers ~slots ~buffer_mb:16 in
    let cfg =
      {
        cfg with
        Config.admission =
          { Config.enabled = true; max_inflight = 2 * workers * slots; max_lock_wait_p95_ns = 0 };
      }
    in
    let eng = Engine.create () in
    let cl = Cluster.create eng ~shards:k cfg in
    let ts = TS.create cl ~warehouses_per_shard:wps ~seed:!opt_seed () in
    let r =
      TS.run_open ts ~shape:(Open_loop.Steady offered)
        ~duration_ns:(int_of_float (seconds *. 1e9))
        ~seed:!opt_seed ()
    in
    (* saturating resource: the hottest utilization across the cell *)
    let candidates =
      List.concat
        (List.init k (fun i ->
             let db = Cluster.shard cl i in
             [
               (Printf.sprintf "shard%d-cpu" i, (Db.stats db).Db.cpu_busy_fraction);
               (Printf.sprintf "shard%d-wal" i, Device.busy_fraction (Db.wal_device db));
               (Printf.sprintf "shard%d-data" i, Device.busy_fraction (Db.data_device db));
             ]))
      @ [
          ("net", Phoebe_shard.Net.utilization (Cluster.net cl));
          ( "admission",
            if r.TS.offered > 0 then float_of_int r.TS.shed /. float_of_int r.TS.offered else 0.0 );
        ]
    in
    let saturated, sat_util =
      List.fold_left (fun (bn, bu) (n, u) -> if u > bu then (n, u) else (bn, bu)) ("idle", 0.0)
        candidates
    in
    let cs = Cluster.stats cl in
    note "%-7d %-9.0f %9d %7d %7d %7d %8.2f %8d %10.0f %-10s" k offered r.TS.committed r.TS.shed
      r.TS.cross_shard_committed r.TS.cross_shard_aborted (r.TS.latency_p99_us /. 1e3) cs.Cluster.net_msgs
      r.TS.tpmc saturated;
    Json.Obj
      [
        ("shards", Json.Int k);
        ("warehouses_per_shard", Json.Int wps);
        ("offered_per_s", Json.Float offered);
        ("virtual_s", Json.Float r.TS.duration_s);
        ("offered", Json.Int r.TS.offered);
        ("admitted", Json.Int r.TS.admitted);
        ("shed", Json.Int r.TS.shed);
        ("completed", Json.Int r.TS.completed);
        ("committed", Json.Int r.TS.committed);
        ("new_orders", Json.Int r.TS.new_orders);
        ("tpmc", Json.Float r.TS.tpmc);
        ("cross_shard_started", Json.Int r.TS.cross_shard_started);
        ("cross_shard_committed", Json.Int r.TS.cross_shard_committed);
        ("cross_shard_aborted", Json.Int r.TS.cross_shard_aborted);
        ("prepare_timeouts", Json.Int r.TS.prepare_timeouts);
        ("exec_timeouts", Json.Int r.TS.exec_timeouts);
        ("latency_p50_us", Json.Float r.TS.latency_p50_us);
        ("latency_p99_us", Json.Float r.TS.latency_p99_us);
        ("saturating_resource", Json.Str saturated);
        ("saturating_utilization", Json.Float sat_util);
        ("registry", Json.Obj (Cluster.registry_json cl));
      ]
  in
  let points = List.concat_map (fun k -> List.map (run_cell k) load_grid) shard_grid in
  add_json "sharded" (Json.List points)

(* ------------------------------------------------------------------ *)
(* HA failover: quorum replication over replica count x link quality.
   A steady open-loop client issues single-row writes against the
   current primary; the primary is killed mid-run, the group elects a
   new one, and the client resumes against it. Each cell reports the
   failover downtime (kill -> first commit quorum-acknowledged by the
   new primary), commit-latency percentiles over every acknowledged
   write, and the saturating resource (primary CPU, primary WAL
   device, the hottest mirror journal, or the fabric). All quantities
   are simulated; fixed seed => byte-identical JSON. *)

let ha_failover () =
  let module Quorum = Phoebe_replication.Quorum in
  let module Engine = Phoebe_sim.Engine in
  section "HA failover: quorum commit vs replica count and link quality";
  let ddl db =
    let t = Db.create_table db ~name:"kv" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
    Db.create_index db t ~name:"kv_pk" ~cols:[ "k" ] ~unique:true
  in
  let period_ns = 200_000 in
  let kill_at_ns = 20_000_000 in
  let total_ns = 100_000_000 in
  note "  one write per %d us, primary killed at %d ms of %d ms" (period_ns / 1000)
    (kill_at_ns / 1_000_000) (total_ns / 1_000_000);
  note "%-9s %-7s %7s %7s %7s %12s %9s %9s %6s %-10s" "replicas" "link" "issued" "acked"
    "skipped" "downtime-ms" "p50-us" "p99-us" "view" "saturated";
  let run_cell replicas (link, latency_ns, drop_p) =
    let cfg = { Config.default with Config.n_workers = 2; slots_per_worker = 4 } in
    let group =
      { Quorum.default_config with Quorum.replicas; latency_ns; drop_p; net_seed = !opt_seed }
    in
    let q = Quorum.create ~group cfg ~ddl in
    let eng = Quorum.engine q in
    let issued = ref 0 and skipped = ref 0 and lats = ref [] in
    let first_ack_after_kill = ref (-1) in
    (* open-loop client: one insert per period against whichever node
       is primary right now; with no primary the write is lost (the
       client's retry against the next primary is a fresh key) *)
    let rec issue k =
      if Engine.now eng + period_ns <= total_ns then
        Engine.schedule eng ~delay:period_ns (fun () ->
            (match Quorum.primary_db q with
            | Some db ->
              let t0 = Engine.now eng in
              incr issued;
              Db.submit db
                ~on_done:(fun () ->
                  let now = Engine.now eng in
                  lats := (now - t0) :: !lats;
                  if now > kill_at_ns && !first_ack_after_kill < 0 then
                    first_ack_after_kill := now)
                (fun txn ->
                  ignore (Table.insert (Db.table db "kv") txn [| Value.Int k; Value.Int k |]))
            | None -> incr skipped);
            issue (k + 1))
    in
    issue 1;
    Quorum.run_for q ~ns:kill_at_ns;
    Quorum.kill q ~node:0;
    Quorum.run_for q ~ns:(total_ns - kill_at_ns);
    let acked = List.length !lats in
    let sorted = Array.of_list !lats in
    Array.sort Int.compare sorted;
    let pct p =
      if acked = 0 then 0
      else sorted.(min (acked - 1) (int_of_float (float_of_int acked *. p)))
    in
    let downtime_ns =
      if !first_ack_after_kill < 0 then total_ns - kill_at_ns else !first_ack_after_kill - kill_at_ns
    in
    let candidates =
      (match Quorum.primary q with
      | Some p ->
        let db = Quorum.db q ~node:p in
        [
          ("primary-cpu", (Db.stats db).Db.cpu_busy_fraction);
          ("primary-wal", Device.busy_fraction (Db.wal_device db));
        ]
      | None -> [])
      @ List.init (Quorum.nodes q) (fun i ->
            (Printf.sprintf "mirror%d" i, Quorum.mirror_utilization q ~node:i))
      @ [ ("net", Quorum.net_utilization q) ]
    in
    let saturated, sat_util =
      List.fold_left (fun (bn, bu) (n, u) -> if u > bu then (n, u) else (bn, bu)) ("idle", 0.0)
        candidates
    in
    Quorum.shutdown q;
    note "%-9d %-7s %7d %7d %7d %12.2f %9d %9d %6d %-10s" replicas link !issued acked !skipped
      (float_of_int downtime_ns /. 1e6) (pct 0.50 / 1000) (pct 0.99 / 1000) (Quorum.view q)
      saturated;
    Json.Obj
      [
        ("replicas", Json.Int replicas);
        ("link", Json.Str link);
        ("latency_ns", Json.Int latency_ns);
        ("drop_p", Json.Float drop_p);
        ("issued", Json.Int !issued);
        ("acked", Json.Int acked);
        ("skipped_no_primary", Json.Int !skipped);
        ("downtime_us", Json.Int (downtime_ns / 1000));
        ("latency_p50_us", Json.Int (pct 0.50 / 1000));
        ("latency_p99_us", Json.Int (pct 0.99 / 1000));
        ("final_view", Json.Int (Quorum.view q));
        ("stream_len_bytes", Json.Int (Quorum.stream_len q));
        ("saturating_resource", Json.Str saturated);
        ("saturating_utilization", Json.Float sat_util);
      ]
  in
  let links = [ ("clean", 50_000, 0.0); ("lossy", 200_000, 0.02) ] in
  let points = List.concat_map (fun r -> List.map (run_cell r) links) [ 1; 2; 4 ] in
  add_json "ha_failover" (Json.List points)

let ablations () =
  ablation_rfa ();
  ablation_snapshot ();
  ablation_lock_table ();
  ablation_swizzling ();
  ablation_freeze ();
  ablation_htap ()

let all () =
  exp1 ();
  exp2 ();
  exp3 ();
  exp4 ();
  exp5 ();
  exp6 ();
  exp7 ();
  exp8 ();
  exp9 ();
  ablations ()
