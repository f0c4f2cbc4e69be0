(* Reproduction harnesses: one per table/figure of the paper's §9.
   Every harness builds its results as rows and hands them to [emit],
   which prints them as a text table and adds them to the --json
   output. The paper's reported values are printed as notes next to
   them. Scaled-down sizes (warehouse counts, virtual-time windows,
   buffer sizes) are fields of the rows; EXPERIMENTS.md records the
   mapping and the measured results. *)
module T = Phoebe_tpcc.Tpcc
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

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Results. A harness builds each result row once, as a field list;
   [emit] prints the rows' scalar fields as an aligned table and
   appends the whole rows to the collection main.ml writes out for
   [--json <path>]. Only simulated (deterministic) quantities go into
   rows — never wall-clock time — so two runs with the same seed emit
   byte-identical files. *)

type row = (string * Json.t) list

let json_results : (string * Json.t) list ref = ref []
let json_output () = Json.Obj !json_results

let text_of = function
  | Json.Int n -> Some (string_of_int n)
  | Json.Float x when Float.abs x >= 1000.0 -> Some (Printf.sprintf "%.0f" x)
  | Json.Float x -> Some (Printf.sprintf "%.4g" x)
  | Json.Str s -> Some s
  | Json.Bool b -> Some (string_of_bool b)
  | Json.Null | Json.List _ | Json.Obj _ -> None

(* One aligned table per run of consecutive rows with the same scalar
   columns; nested fields (series, registries) are --json only. *)
let emit name (rows : row list) =
  let cells row = List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (text_of v)) row in
  let print_table = function
    | [] -> ()
    | first :: _ as table ->
      let header = List.map fst first in
      let widths =
        List.fold_left
          (fun ws r -> List.map2 (fun w (_, s) -> max w (String.length s)) ws r)
          (List.map String.length header) table
      in
      let line cols =
        print_endline
          (String.concat "  " (List.map2 (fun w c -> Printf.sprintf "%*s" w c) widths cols))
      in
      print_newline ();
      line header;
      List.iter (fun r -> line (List.map snd r)) table
  in
  let tables =
    List.fold_left
      (fun acc r ->
        match acc with
        | (prev :: _ as table) :: rest when List.map fst prev = List.map fst r ->
          (r :: table) :: rest
        | _ -> [ r ] :: acc)
      [] (List.map cells rows)
  in
  List.iter (fun t -> print_table (List.rev t)) (List.rev tables);
  json_results := !json_results @ [ (name, Json.List (List.map (fun r -> Json.Obj r) rows)) ]

(* A numeric field of a row built by this file. *)
let num (row : row) key =
  match List.assoc key row with
  | Json.Float x -> x
  | _ -> invalid_arg ("Experiments.num: " ^ key)

(* [key] of [row] over [key] of [base], as a field value. *)
let ratio row base key = Json.Float (num row key /. Float.max 1.0 (num base key))

(* Harness checks (TPC-C consistency, recovered rows, scan agreement).
   A failed check prints a "!!" line, and main.ml exits non-zero once
   --json is written. *)
let failures = ref 0

let require ok what =
  if not ok then begin
    incr failures;
    note "  !! %s" what
  end

(* The hottest of a set of named utilizations; "idle" when all are 0. *)
let saturating candidates =
  List.fold_left
    (fun (bn, bu) (n, u) -> if u > bu then (n, u) else (bn, bu))
    ("idle", 0.0) candidates

(* ------------------------------------------------------------------ *)

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

let phoebe_config ~workers ~slots ~buffer_mb =
  {
    Config.default with
    Config.n_workers = workers;
    slots_per_worker = slots;
    buffer_bytes = buffer_mb * mb;
    sanitize = !opt_sanitize;
  }

(* [cfg] with admission control capping in-flight transactions at twice
   its task slots. *)
let with_admission cfg =
  let max_inflight = 2 * cfg.Config.n_workers * cfg.Config.slots_per_worker in
  { cfg with Config.admission = { Config.enabled = true; max_inflight; max_lock_wait_p95_ns = 0 } }

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

(* Instructions charged per component while [f] runs on [db]. *)
let instr_during db f =
  let counters = Scheduler.counters (Db.scheduler db) in
  let before = Counters.snapshot counters in
  let r = f () in
  (r, Counters.diff before (Counters.snapshot counters))

(* ------------------------------------------------------------------ *)
(* Exp 1 / Figure 7(a): tpmC at warehouses = workers *)

(* One Exp 1 point, TPC-C-consistency checked after the run. *)
let exp1_row ~w ~slots ~seconds ~buffer_mb =
  let db, t = load_tpcc (phoebe_config ~workers:w ~slots ~buffer_mb) ~warehouses:w in
  (* Process-wide allocation over the measured run: everything the
     engine, scheduler, generators and kernel allocate, where the
     registry's txn.alloc.minor_words_per_txn counts only what falls
     inside a transaction's CPU brackets. *)
  let w0 = Gc.minor_words () in
  let r = run_tpcc t ~workers:w ~slots ~seconds in
  let minor_words = Gc.minor_words () -. w0 in
  let violated =
    List.filter_map (fun (n, ok) -> if ok then None else Some n) (T.consistency_checks t)
  in
  require (violated = [])
    (Printf.sprintf "W=%d: consistency violated: %s" w (String.concat ", " violated));
  [
    ("warehouses", Json.Int w);
    ("virtual_s", Json.Float r.T.duration_s);
    ("tpmc", Json.Float r.T.tpmc);
    ("tpm_total", Json.Float r.T.tpm_total);
    ("process_minor_words_per_txn", Json.Float (minor_words /. float_of_int (max 1 r.T.total_committed)));
    ("aborts_by_reason", abort_reasons_json db);
    (* the whole observability plane, including the
       trace.txn.<kind>.* span percentiles; the registry is read after
       the consistency checks, so it counts their read transaction *)
    ("registry", Obs.to_json (Db.obs db));
  ]

let exp1 () =
  section "Exp 1 (Fig 7a): tpmC, warehouses = worker threads";
  note "paper: 349k / 3362k / 6903k / 11578k / 13690k tpmC at W=T of 1/10/25/50/100";
  emit "exp1"
    (List.map
       (fun w ->
         exp1_row ~w ~slots:32 ~seconds:(if w <= 10 then 0.5 else 0.25) ~buffer_mb:(max 16 (4 * w)))
       [ 1; 10; 25; 50; 100 ])

(* Tier-1 smoke: Exp 1's row at W=2 for 5 virtual seconds, a scale CI
   can afford, so `tier1.sh` can validate the emitted JSON on every
   change. *)
let smoke () =
  section "Smoke (tier-1): one Exp 1 row at a CI-sized point";
  emit "exp1" [ exp1_row ~w:2 ~slots:8 ~seconds:5.0 ~buffer_mb:16 ]

(* ------------------------------------------------------------------ *)
(* Exp 2 / Figure 8: scalability in worker count (knee at 52 cores) *)

let exp2 () =
  section "Exp 2 (Fig 8): scalability with worker count";
  note "paper: near-linear to 52 workers (physical cores), slower but still rising to 104";
  emit "exp2"
    (List.map
       (fun workers ->
         let cfg = phoebe_config ~workers ~slots:32 ~buffer_mb:(max 16 (4 * workers)) in
         let _, t = load_tpcc cfg ~warehouses:workers in
         let r = run_tpcc t ~workers ~slots:32 ~seconds:0.2 in
         [
           ("workers", Json.Int workers);
           ("tpm_total", Json.Float r.T.tpm_total);
           ("tpm_per_worker", Json.Float (r.T.tpm_total /. float_of_int workers));
         ])
       [ 1; 13; 26; 39; 52; 78; 104 ])

(* ------------------------------------------------------------------ *)
(* Exp 3 / Figure 7(b): WAL flushing throughput over time *)

let exp3 () =
  section "Exp 3 (Fig 7b): WAL flushing throughput (dedicated WAL device)";
  note "paper: stable ~1800 MB/s (130k IOPS) on the PM9A3 via io_uring; our logical";
  note "records are far smaller than their physical page deltas, so the magnitude is";
  note "lower -- the reproduced property is the *stable plateau* (series in --json).";
  let workers = 26 in
  let cfg = phoebe_config ~workers ~slots:32 ~buffer_mb:128 in
  let db, t = load_tpcc cfg ~warehouses:workers in
  let r = run_tpcc t ~workers ~slots:32 ~seconds:1.0 in
  let series = Device.throughput_series (Db.wal_device db) Device.Write in
  let mbps = List.map snd series in
  let avg = List.fold_left ( +. ) 0.0 mbps /. float_of_int (max 1 (List.length mbps)) in
  let writes = Device.total_ops (Db.wal_device db) Device.Write in
  let s = Db.stats db in
  emit "exp3"
    [
      [
        ("workers", Json.Int workers);
        ("virtual_s", Json.Float r.T.duration_s);
        ("tpm_total", Json.Float r.T.tpm_total);
        ("wal_mb", Json.Float (float_of_int s.Db.wal_bytes /. 1e6));
        ("wal_records", Json.Int s.Db.wal_records);
        ("wal_mb_s_avg", Json.Float avg);
        ("wal_mb_s_min", Json.Float (List.fold_left Float.min infinity mbps));
        ("wal_mb_s_max", Json.Float (List.fold_left Float.max 0.0 mbps));
        ("wal_write_ops", Json.Int writes);
        ("wal_kiops", Json.Float (float_of_int writes /. r.T.duration_s /. 1e3));
        ( "series",
          Json.List
            (List.map
               (fun (sec, v) -> Json.Obj [ ("virt_s", Json.Float sec); ("wal_mb_s", Json.Float v) ])
               series) );
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Exp 4 / Figure 7(c,d): data-device throughput once data outgrows the buffer *)

let exp4_row ~cleaner_enabled =
  let workers = 10 and buffer_mb = 6 and seconds = 2.0 in
  (* deliberately small buffer: the order/orderline/history growth spills *)
  let cfg = phoebe_config ~workers ~slots:32 ~buffer_mb in
  let cfg =
    { cfg with Config.cleaner = { Bufmgr.default_cleaner with Bufmgr.cl_enabled = cleaner_enabled } }
  in
  let db, t = load_tpcc cfg ~warehouses:workers in
  let r = run_tpcc t ~workers ~slots:32 ~seconds in
  let dev = Db.data_device db in
  let write_ops = Device.total_ops dev Device.Write in
  let write_batches = Device.total_batches dev Device.Write in
  let pages_per_submission = float_of_int write_ops /. float_of_int (max 1 write_batches) in
  let cs = Db.cleaner_stats db in
  let reads = Device.throughput_series dev Device.Read in
  let writes = Device.throughput_series dev Device.Write in
  let lookup s x = match List.assoc_opt x s with Some v -> v | None -> 0.0 in
  [
    ("workers", Json.Int workers);
    ("buffer_mb", Json.Int buffer_mb);
    ("virtual_seconds", Json.Float seconds);
    ("seed", Json.Int !opt_seed);
    ("cleaner_enabled", Json.Bool cleaner_enabled);
    ("duration_virtual_s", Json.Float r.T.duration_s);
    ("tpmc", Json.Float r.T.tpmc);
    ("tpm_total", Json.Float r.T.tpm_total);
    ("committed", Json.Int r.T.total_committed);
    ("aborted", Json.Int r.T.aborted);
    ( "series",
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
           (T.throughput_series t)) );
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

let exp4 () =
  section "Exp 4 (Fig 7c,d): data exchange between Main Storage and disk";
  note "paper: exchange starts ~2 min in, tpmC dips then stabilises; writes plateau,";
  note "reads grow as the working set exceeds the buffer. (Timescale compressed here.)";
  note "(before/after: inline write-back on eviction vs batched background cleaner;";
  note " the per-second read/write/txn series and device counters are in --json)";
  let off = exp4_row ~cleaner_enabled:false in
  let on = exp4_row ~cleaner_enabled:true in
  emit "exp4" [ off; on ];
  note "cleaner speedup: %.2fx tpmC" (num on "tpmc" /. Float.max 1.0 (num off "tpmc"))

(* ------------------------------------------------------------------ *)
(* Exp 5 / Figure 10: throughput vs buffer size *)

let exp5 () =
  section "Exp 5 (Fig 10): performance under different buffer sizes";
  note "paper: 100 WH, buffer 4GB->100GB; tpm rises, diminishing returns past 25GB";
  note "(scaled: buffer in MB, a quarter of the paper's warehouses)";
  emit "exp5"
    (List.map
       (fun buffer_mb ->
         let workers = 25 in
         let db, t = load_tpcc (phoebe_config ~workers ~slots:32 ~buffer_mb) ~warehouses:workers in
         let r = run_tpcc t ~workers ~slots:32 ~seconds:0.4 in
         [
           ("warehouses", Json.Int workers);
           ("buffer_mb", Json.Int buffer_mb);
           ("tpm_total", Json.Float r.T.tpm_total);
           ("buffer_resident_bytes", Json.Int (Db.stats db).Db.buffer_resident_bytes);
           ("data_device_busy", Json.Float (Device.busy_fraction (Db.data_device db)));
         ])
       [ 2; 4; 8; 16; 32; 64; 100 ])

(* ------------------------------------------------------------------ *)
(* Exp 6 / Figure 11: co-routine vs thread model *)

let exp6 () =
  section "Exp 6 (Fig 11): co-routine vs thread execution model";
  note "paper: 100 workers x 32 slots (coroutine) vs 3200 threads x 1 slot, affinity off;";
  note "the coroutine model wins on user-level switching. (Scaled to 8 cores.)";
  (* both models get the same 8 scaled cores: 8 co-routine workers on
     dedicated cores vs 256 threads time-sharing them *)
  let cpu8 =
    { Phoebe_runtime.Cpu.default with Phoebe_runtime.Cpu.physical_cores = 8; virtual_cores = 8 }
  in
  let run name model ~workers ~slots =
    let cfg =
      {
        Config.default with
        Config.n_workers = workers;
        slots_per_worker = slots;
        model;
        cpu = cpu8;
        buffer_bytes = 64 * mb;
      }
    in
    let db, t = load_tpcc cfg ~warehouses:8 in
    let r =
      T.run_mix t ~affinity:false ~concurrency:256 ~duration_ns:(int_of_float 0.4e9)
        ~seed:!opt_seed ()
    in
    [
      ("model", Json.Str name);
      ("tpm_total", Json.Float r.T.tpm_total);
      ("latency_p99_us", Json.Float r.T.latency_p99_us);
      ( "switch_instr_per_txn",
        Json.Int
          (Counters.get (Scheduler.counters (Db.scheduler db)) Component.Switch
          / max 1 r.T.total_committed) );
    ]
  in
  let coroutine = run "coroutine 8x32" Scheduler.Coroutine ~workers:8 ~slots:32 in
  let thread = run "thread 256x1" Scheduler.Thread ~workers:256 ~slots:1 in
  let vs_thread row = row @ [ ("tpm_vs_thread", ratio row thread "tpm_total") ] in
  emit "exp6" [ vs_thread coroutine; vs_thread thread ]

(* ------------------------------------------------------------------ *)
(* Exp 7 / Figure 12: instruction breakdown per transaction *)

let exp7 () =
  section "Exp 7 (Fig 12): instruction breakdown per TPC-C transaction";
  note "paper: affinity=true  -> effective computation 60.8%%, no visible locking;";
  note "       affinity=false -> locking appears, higher WAL, effective 56.5%%";
  let run affinity =
    let workers = 8 in
    let db, t = load_tpcc (phoebe_config ~workers ~slots:32 ~buffer_mb:64) ~warehouses:workers in
    instr_during db (fun () -> run_tpcc ~affinity t ~workers ~slots:32 ~seconds:0.4)
  in
  let runs = List.map (fun affinity -> (affinity, run affinity)) [ true; false ] in
  emit "exp7"
    (List.map
       (fun (affinity, (r, _)) ->
         [
           ("affinity", Json.Bool affinity);
           ("committed", Json.Int r.T.total_committed);
           ("aborted", Json.Int r.T.aborted);
         ])
       runs
    @ List.concat_map
        (fun (affinity, (r, diff)) ->
          List.map
            (fun (c, instr, share) ->
              [
                ("affinity", Json.Bool affinity);
                ("component", Json.Str (Component.to_string c));
                ("instr_per_txn", Json.Int (instr / max 1 r.T.total_committed));
                ("share", Json.Float share);
              ])
            (Counters.breakdown diff))
        runs)

(* ------------------------------------------------------------------ *)
(* Exp 8 / Figure 9: PhoebeDB vs PostgreSQL-style baseline *)

let exp8 () =
  section "Exp 8 (Fig 9): transactions vs PostgreSQL-style baseline";
  note "paper: 30M tpm vs 1.1M tpm (27x); instructions per txn pg-like/PhoebeDB:";
  note "       Payment 2.5x, NewOrder 5.6x";
  let workers = 26 in
  let run name cfg =
    let db, t = load_tpcc cfg ~warehouses:workers in
    let r = run_tpcc t ~workers ~slots:cfg.Config.slots_per_worker ~seconds:0.3 in
    [
      ("system", Json.Str name);
      ("tpm_total", Json.Float r.T.tpm_total);
      ("cpu_busy", Json.Float (Db.stats db).Db.cpu_busy_fraction);
    ]
  in
  let phoebe = run "PhoebeDB" (phoebe_config ~workers ~slots:32 ~buffer_mb:104) in
  let pg = run "pg-like" (B.pg_like ~workers ~buffer_bytes:(104 * mb) ()) in
  let vs_pg row = row @ [ ("tpm_vs_pg_like", ratio row pg "tpm_total") ] in
  (* per-transaction instructions for Payment and NewOrder (Figure 9) *)
  let instr_per_txn cfg kind =
    let db, t = load_tpcc cfg ~warehouses:4 in
    let r, diff =
      instr_during db (fun () ->
          T.run_mix t ~mix:[ (kind, 1.0) ] ~concurrency:16 ~duration_ns:(int_of_float 0.2e9)
            ~seed:!opt_seed ())
    in
    float_of_int (Array.fold_left ( + ) 0 diff) /. float_of_int (max 1 r.T.total_committed)
  in
  let phoebe_cfg = phoebe_config ~workers:4 ~slots:8 ~buffer_mb:32 in
  let pg_cfg = B.pg_like ~workers:4 () in
  emit "exp8"
    ([ vs_pg phoebe; vs_pg pg ]
    @ List.map
        (fun kind ->
          let p = instr_per_txn phoebe_cfg kind and g = instr_per_txn pg_cfg kind in
          [
            ("kind", Json.Str (T.kind_name kind));
            ("phoebe_instr_per_txn", Json.Float p);
            ("pg_like_instr_per_txn", Json.Float g);
            ("pg_like_vs_phoebe", Json.Float (g /. Float.max 1.0 p));
          ])
        [ T.Payment; T.New_order ])

(* ------------------------------------------------------------------ *)
(* Exp 9: commercial "O-DB" baseline, I/O bound at ~77% CPU *)

let exp9 () =
  section "Exp 9: commercial-RDBMS baseline (O-DB)";
  note "paper: O-DB peaks at 3.2M tpm and uses only ~77%% of CPU (I/O bandwidth bound)";
  let workers = 26 in
  let db, t = load_tpcc (B.odb_like ~workers ~buffer_bytes:(16 * mb) ()) ~warehouses:workers in
  let r = run_tpcc t ~workers ~slots:1 ~seconds:0.3 in
  emit "exp9"
    [
      [
        ("system", Json.Str "O-DB-like");
        ("tpm_total", Json.Float r.T.tpm_total);
        ("cpu_busy", Json.Float (Db.stats db).Db.cpu_busy_fraction);
        ("wal_device_busy", Json.Float (Device.busy_fraction (Db.wal_device db)));
        ("data_device_busy", Json.Float (Device.busy_fraction (Db.data_device db)));
      ];
    ]

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out. The TPC-C
   ablations share one baseline — the default config, with every design
   choice on — and switch one choice off each. *)

let ablation_tpcc variant cfg =
  let db, t = load_tpcc cfg ~warehouses:8 in
  let r, diff = instr_during db (fun () -> run_tpcc t ~workers:8 ~slots:32 ~seconds:0.3) in
  let s = Db.stats db in
  let mvcc_share =
    List.assoc Component.Mvcc (List.map (fun (c, _, sh) -> (c, sh)) (Counters.breakdown diff))
  in
  [
    ("variant", Json.Str variant);
    ("tpm_total", Json.Float r.T.tpm_total);
    ("latency_p99_us", Json.Float r.T.latency_p99_us);
    ("mvcc_share", Json.Float mvcc_share);
    ("rfa_local_commits", Json.Int s.Db.rfa_local_commits);
    ("rfa_remote_waits", Json.Int s.Db.rfa_remote_waits);
  ]

(* A 2-worker instance holding one table of [n] generated rows, aged
   (eight access-count decays) until its pages are cold enough to
   freeze. *)
let cold_table ?(buffer_bytes = Config.default.Config.buffer_bytes) ~name ~schema n make_row =
  let db =
    Db.create { Config.default with Config.n_workers = 2; slots_per_worker = 8; buffer_bytes }
  in
  let t = Db.create_table db ~name ~schema in
  Db.with_txn db (fun txn ->
      for i = 1 to n do
        ignore (Table.insert t txn (make_row i))
      done);
  for _ = 1 to 8 do
    Phoebe_btree.Table_tree.decay_access_counts (Table.tree t)
  done;
  (db, t)

(* Frozen compression: a cold table frozen off the page buffer, then
   scanned across tiers without warming it. *)
let ablation_freeze () =
  let tuples = 30_000 in
  let db, events =
    cold_table ~buffer_bytes:mb ~name:"events"
      ~schema:[ ("ts", Value.T_int); ("kind", Value.T_str) ]
      tuples
      (fun i -> [| Value.Int i; Value.Str (Printf.sprintf "kind-%d" (i mod 5)) |])
  in
  let tree = Table.tree events in
  let resident () = Json.Int (Db.stats db).Db.buffer_resident_bytes in
  let resident_before = resident () in
  let frozen = Db.freeze_tables db in
  let resident_frozen = resident () in
  let scanned =
    Db.with_txn db (fun txn ->
        let n = ref 0 in
        Table.scan events txn (fun _ _ -> incr n);
        !n)
  in
  [
    ("tuples", Json.Int tuples);
    ("frozen_tuples", Json.Int frozen);
    ("frozen_blocks", Json.Int (Phoebe_btree.Table_tree.frozen_block_count tree));
    ("compression", Json.Float (Phoebe_btree.Table_tree.compression_ratio tree));
    ("resident_bytes_before", resident_before);
    ("resident_bytes_frozen", resident_frozen);
    ("scanned_rows", Json.Int scanned);
    ("resident_bytes_after_scan", resident ());
  ]

(* HTAP columnar vs row-wise scan. The timing is host wall-clock, so it
   is printed only, never put in --json. *)
let ablation_htap () =
  let module A = Phoebe_analytics.Analytics in
  let db, t =
    cold_table ~name:"facts" ~schema:[ ("k", Value.T_int); ("x", Value.T_float) ] 50_000 (fun k ->
        [| Value.Int k; Value.Float (float_of_int (k mod 997)) |])
  in
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
      note "\nHTAP, host wall-clock: 50k rows (%.1fx compressed frozen): columnar %.2f ms, \
            row-wise %.2f ms (%.0fx)"
        (Phoebe_btree.Table_tree.compression_ratio (Table.tree t))
        (ct *. 1e3) (rt *. 1e3)
        (rt /. Float.max 1e-9 ct);
      require (abs_float (colsum -. rowsum) <= 1e-6) "HTAP: columnar and row-wise sums disagree")

let ablations () =
  section "Ablations: design choices on (baseline) vs one switched off";
  note "RFA: commits wait only for their own WAL writer, not the global durable-GSN floor;";
  note "swizzling: a direct pointer vs a hash probe + latch on every buffer access;";
  note "speedup = baseline tpm / variant tpm; the last table is temperature tiers (freeze).";
  let base_cfg = phoebe_config ~workers:8 ~slots:32 ~buffer_mb:64 in
  let base = ablation_tpcc "baseline (all on)" base_cfg in
  let speedup row = row @ [ ("speedup", ratio base row "tpm_total") ] in
  let rows =
    List.map speedup
      [
        base;
        ablation_tpcc "RFA off"
          { base_cfg with Config.wal = { Wal.default_config with Wal.rfa = false } };
        ablation_tpcc "scan active txns"
          { base_cfg with Config.snapshot_mode = Txnmgr.Scan_active };
        ablation_tpcc "global lock table"
          {
            base_cfg with
            Config.lock_style =
              Config.Global_serialized { lock_hold_ns = 800; snapshot_hold_ns = 0 };
          };
        ablation_tpcc "global hash probe (1300)"
          {
            base_cfg with
            Config.cost = { Phoebe_sim.Cost.default with Phoebe_sim.Cost.buffer_hit = 1300 };
          };
      ]
  in
  emit "ablations" (rows @ [ ablation_freeze () ]);
  ablation_htap ()

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
  let run_point ~admission users =
    let cfg = phoebe_config ~workers ~slots ~buffer_mb:16 in
    let cfg =
      if admission then { (with_admission cfg) with Config.txn_deadline_ns = 2_000_000 } else cfg
    in
    let db, t = load_tpcc cfg ~warehouses:w in
    let r = T.run_mix t ~concurrency:users ~duration_ns:(int_of_float (seconds *. 1e9)) ~seed:!opt_seed () in
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
  emit "overload"
    (List.concat_map
       (fun u -> [ run_point ~admission:false u; run_point ~admission:true u ])
       [ 8; 32; 128 ])

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
  let cfg =
    { Config.default with Config.n_workers = 2; slots_per_worker = 4; sanitize = !opt_sanitize }
  in
  note "  each transaction: 1 update + 0-2 inserts; power loss after the last commit";
  let module Checkpoint = Phoebe_core.Checkpoint in
  let module Recovery = Phoebe_wal.Recovery in
  let run_point every =
    let db = Db.create cfg in
    let t = Db.create_table db ~name:"kv" ~schema:[ ("k", Value.T_int); ("v", Value.T_int) ] in
    Db.create_index db t ~name:"kv_pk" ~cols:[ "k" ] ~unique:true;
    let v_col = Phoebe_core.Table.col t "v" in
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
               ~key:(Phoebe_core.Table.key t txn |> Phoebe_core.Table.Key.add (Value.Int (1 + (i mod n_base))))
           with
          | 0 -> ()
          | rid ->
            ignore (Phoebe_core.Table.update ~reads:[||] t txn ~rid (fun _ -> [| (v_col, Value.Int i) |])));
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
    require (rows = expect)
      (Printf.sprintf "checkpoint every %d: recovered %d rows, expected %d" every rows expect);
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
  emit "recovery" (List.map run_point [ 0; 16; 64 ])

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
  note "  ~10%% of NewOrder/Payment cross-warehouse; admission on, max inflight 2 x slots";
  let run_cell k offered =
    let cfg = with_admission (phoebe_config ~workers ~slots ~buffer_mb:16) in
    let eng = Engine.create () in
    let cl = Cluster.create eng ~shards:k cfg in
    let ts = TS.create cl ~warehouses_per_shard:wps ~seed:!opt_seed () in
    let r =
      TS.run_open ts ~shape:(Open_loop.Steady offered)
        ~duration_ns:(int_of_float (seconds *. 1e9))
        ~seed:!opt_seed ()
    in
    let saturated, sat_util =
      saturating
        (List.concat
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
          ])
    in
    let row =
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
    (* after the row: the checks' own transactions stay out of its registry *)
    for i = 0 to k - 1 do
      let violated =
        List.filter_map (fun (n, ok) -> if ok then None else Some n) (T.consistency_checks (TS.part ts i))
      in
      require (violated = [])
        (Printf.sprintf "K=%d at %.0f/s, shard %d: consistency violated: %s" k offered i
           (String.concat ", " violated))
    done;
    row
  in
  emit "sharded"
    (List.concat_map (fun k -> List.map (run_cell k) [ 1000.0; 4000.0; 16000.0 ]) [ 1; 2; 4 ])

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
  let run_cell replicas (link, latency_ns, drop_p) =
    let cfg =
      { Config.default with Config.n_workers = 2; slots_per_worker = 4; sanitize = !opt_sanitize }
    in
    let group =
      { Quorum.replicas; latency_ns; drop_p; net_seed = !opt_seed }
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
    let saturated, sat_util =
      saturating
        ((match Quorum.primary q with
         | Some p ->
           let db = Quorum.db q ~node:p in
           [
             ("primary-cpu", (Db.stats db).Db.cpu_busy_fraction);
             ("primary-wal", Device.busy_fraction (Db.wal_device db));
           ]
         | None -> [])
        @ List.init (Quorum.nodes q) (fun i ->
              (Printf.sprintf "mirror%d" i, Quorum.mirror_utilization q ~node:i))
        @ [ ("net", Quorum.net_utilization q) ])
    in
    (* the group's registry, then every node's under [node.<i>.]: a
       sanitized run exports each node's [sanitize.*] *)
    let registry =
      Obs.to_json_prefixed (Quorum.obs q) ~prefix:""
      @ List.concat
          (List.init (Quorum.nodes q) (fun i ->
               Obs.to_json_prefixed (Db.obs (Quorum.db q ~node:i)) ~prefix:(Printf.sprintf "node.%d." i)))
    in
    Quorum.shutdown q;
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
      ("registry", Json.Obj registry);
    ]
  in
  let links = [ ("clean", 50_000, 0.0); ("lossy", 200_000, 0.02) ] in
  emit "ha_failover" (List.concat_map (fun r -> List.map (run_cell r) links) [ 1; 2; 4 ])

(* Every harness by name, in the order [all] runs them. The smoke is
   left out of [all]: it is Exp 1's row at one tier-1-sized point. *)
let harnesses =
  [
    ("exp1", exp1);
    ("exp2", exp2);
    ("exp3", exp3);
    ("exp4", exp4);
    ("exp5", exp5);
    ("exp6", exp6);
    ("exp7", exp7);
    ("exp8", exp8);
    ("exp9", exp9);
    ("ablations", ablations);
    ("overload", overload);
    ("recovery", recovery);
    ("sharded", sharded);
    ("ha_failover", ha_failover);
  ]

let all () = List.iter (fun (_, run) -> run ()) harnesses
