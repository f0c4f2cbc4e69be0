(* Benchmark entry point.

     dune exec bench/main.exe                 # every experiment + micro-benchmarks
     dune exec bench/main.exe -- exp1 exp7    # selected experiments
     dune exec bench/main.exe -- micro        # Bechamel micro-benchmarks only

   The expN harnesses regenerate the paper's tables and figures (see
   DESIGN.md's per-experiment index); `micro` runs Bechamel
   micro-benchmarks of the kernel's hot code paths in *real* time. *)
open Bechamel
open Toolkit
module Value = Phoebe_storage.Value
module Pax = Phoebe_storage.Pax
module Frozen = Phoebe_storage.Frozen
module Record = Phoebe_wal.Record
module Clock = Phoebe_txn.Clock
module Undo = Phoebe_txn.Undo
module Mvcc = Phoebe_txn.Mvcc
module Index_tree = Phoebe_btree.Index_tree
module Prng = Phoebe_util.Prng
module Json = Phoebe_util.Json

(* ------------------------------------------------------------------ *)
(* Micro-benchmark fixtures *)

let schema = Value.Schema.make [ ("k", Value.T_int); ("v", Value.T_str); ("f", Value.T_float) ]
let row i = [| Value.Int i; Value.Str (Printf.sprintf "payload-%d" (i mod 17)); Value.Float 1.5 |]

let sample_page =
  let p = Pax.create schema ~capacity:256 in
  for i = 1 to 256 do
    ignore (Pax.append p ~row_id:i (row i))
  done;
  p

let sample_page_bytes = Pax.encode sample_page
let sample_block = Frozen.freeze [ sample_page ]
let sample_block_bytes = Frozen.encode sample_block

let sample_record =
  {
    Record.slot = 3;
    lsn = 42;
    gsn = 99;
    op = Record.Update { table = 7; rid = 1234; cols = [| (1, Value.Str "after"); (2, Value.Float 2.5) |] };
  }

let sample_record_bytes =
  let buf = Buffer.create 64 in
  Record.encode buf sample_record;
  Buffer.to_bytes buf

let version_chain depth =
  let xid = Clock.xid_of_start_ts 1000 in
  let rec build i prev =
    if i = 0 then prev
    else begin
      let u =
        Undo.make ~table_id:1 ~rid:1
          ~kind:(Undo.Updated [| (1, Value.Str (Printf.sprintf "v%d" i)) |])
          ~sts:(100 + i) ~xid ~slot:0 ~prev
      in
      u.Undo.ets <- 100 + i + 1;
      build (i - 1) (Some u)
    end
  in
  build depth None

let chain4 = version_chain 4

let sample_index =
  let ix = Index_tree.create ~name:"bench" ~unique:false () in
  for i = 1 to 10_000 do
    ignore (Index_tree.insert ix ~key:(Index_tree.encode_key [ Value.Int (i mod 1000); Value.Int i ]) ~rid:i)
  done;
  ix

let micro_tests =
  let rng = Prng.create ~seed:9 in
  [
    Test.make ~name:"pax/encode (256 rows)" (Staged.stage (fun () -> ignore (Pax.encode sample_page)));
    Test.make ~name:"pax/decode (256 rows)"
      (Staged.stage (fun () -> ignore (Pax.decode sample_page_bytes)));
    Test.make ~name:"pax/point read" (Staged.stage (fun () -> ignore (Pax.get sample_page ~slot:128)));
    Test.make ~name:"frozen/freeze (256 rows)"
      (Staged.stage (fun () -> ignore (Frozen.freeze [ sample_page ])));
    Test.make ~name:"frozen/decode block"
      (Staged.stage (fun () -> ignore (Frozen.decode sample_block_bytes)));
    Test.make ~name:"frozen/point read"
      (Staged.stage (fun () -> ignore (Frozen.get sample_block ~row_id:128)));
    Test.make ~name:"wal/record encode"
      (Staged.stage (fun () ->
           let buf = Buffer.create 64 in
           Record.encode buf sample_record));
    Test.make ~name:"wal/record decode"
      (Staged.stage (fun () -> ignore (Record.decode sample_record_bytes 0)));
    Test.make ~name:"mvcc/visibility hit (committed header)"
      (Staged.stage (fun () ->
           ignore
             (Mvcc.visible_version ~xid:(Clock.xid_of_start_ts 7) ~snapshot:1_000_000
                ~current:(row 1) ~deleted_in_page:false ~head:chain4)));
    Test.make ~name:"mvcc/visibility walk (4 versions)"
      (Staged.stage (fun () ->
           ignore
             (Mvcc.visible_version ~xid:(Clock.xid_of_start_ts 7) ~snapshot:1 ~current:(row 1)
                ~deleted_in_page:false ~head:chain4)));
    Test.make ~name:"index/point lookup (10k entries)"
      (Staged.stage (fun () ->
           ignore
             (Index_tree.lookup_first sample_index
                ~key:(Index_tree.encode_key [ Value.Int (Prng.int rng 1000); Value.Int 0 ]))));
    Test.make ~name:"index/encode composite key"
      (Staged.stage (fun () ->
           ignore (Index_tree.encode_key [ Value.Int 42; Value.Str "abcdef"; Value.Int 7 ])));
    Test.make ~name:"util/crc32 1KB"
      (Staged.stage
         (let b = Bytes.make 1024 'x' in
          fun () -> ignore (Phoebe_util.Crc32.bytes b ~pos:0 ~len:1024)));
  ]

let run_micro () =
  print_endline "\nMicro-benchmarks (Bechamel, real time)";
  print_endline "======================================";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:true () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"phoebe" ~fmt:"%s %s" micro_tests) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> Printf.printf "  %-44s %12.1f ns/op\n" name est
      | _ -> Printf.printf "  %-44s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

let usage () =
  print_endline
    "usage: bench/main.exe [exp1 exp2 exp3 exp4 exp5 exp6 exp7 exp8 exp9 ablations overload \
     recovery micro all smoke sharded ha_failover]\n\
    \       [--experiment <name>]   run <name> (same as passing it positionally)\n\
    \       [--seed <n>]            workload seed for every harness (default 42)\n\
    \       [--json <path>]         write machine-readable results (simulated quantities only)\n\
    \       [--check-json <path>]   validate that <path> parses as JSON, then exit\n\
    \       [--deadline-ms <n>]     arm an n-millisecond (virtual) per-transaction deadline\n\
    \       [--admission]           enable overload admission control (default thresholds)\n\
    \       [--sanitize]            enable the kernel sanitizer plane (exports sanitize.* counters)"

(* Pull "<key> <value>" out of the argument list. *)
let rec extract_opt key = function
  | [] -> (None, [])
  | k :: path :: rest when k = key ->
    let _, remaining = extract_opt key rest in
    (Some path, remaining)
  | [ k ] when k = key ->
    prerr_endline (key ^ " requires a path argument");
    exit 2
  | arg :: rest ->
    let path, remaining = extract_opt key rest in
    (path, arg :: remaining)

(* Pull a bare "<key>" flag out of the argument list. *)
let rec extract_flag key = function
  | [] -> (false, [])
  | k :: rest when k = key ->
    let _, remaining = extract_flag key rest in
    (true, remaining)
  | arg :: rest ->
    let found, remaining = extract_flag key rest in
    (found, arg :: remaining)

let () =
  let t0 = Unix.gettimeofday () in
  let args = List.tl (Array.to_list Sys.argv) in
  let json_path, args = extract_opt "--json" args in
  let check_path, args = extract_opt "--check-json" args in
  let deadline_ms, args = extract_opt "--deadline-ms" args in
  let seed_arg, args = extract_opt "--seed" args in
  let experiment, args = extract_opt "--experiment" args in
  let admission, args = extract_flag "--admission" args in
  let sanitize, args = extract_flag "--sanitize" args in
  (match seed_arg with
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> Experiments.opt_seed := n
    | None ->
      prerr_endline "--seed requires an integer";
      exit 2)
  | None -> ());
  let args = match experiment with Some name -> args @ [ name ] | None -> args in
  (match deadline_ms with
  | Some ms -> (
    match int_of_string_opt ms with
    | Some n when n > 0 -> Experiments.opt_deadline_ms := Some n
    | _ ->
      prerr_endline "--deadline-ms requires a positive integer";
      exit 2)
  | None -> ());
  Experiments.opt_admission := admission;
  Experiments.opt_sanitize := sanitize;
  (match check_path with
  | Some path -> (
    match Json.of_file path with
    | Ok _ ->
      Printf.printf "%s: valid JSON\n" path;
      exit 0
    | Error msg ->
      Printf.printf "%s: INVALID JSON (%s)\n" path msg;
      exit 1)
  | None -> ());
  let args = if args = [] then [ "all"; "micro" ] else args in
  print_endline "PhoebeDB reproduction benchmarks";
  print_endline "(simulated 2x26-core 2.2GHz CPU, PM9A3-class NVMe devices; scaled TPC-C --";
  print_endline " see EXPERIMENTS.md for the scale mapping and paper-vs-measured tables)";
  List.iter
    (fun arg ->
      match arg with
      | "exp1" -> Experiments.exp1 ()
      | "exp2" -> Experiments.exp2 ()
      | "exp3" -> Experiments.exp3 ()
      | "exp4" -> Experiments.exp4 ()
      | "exp5" -> Experiments.exp5 ()
      | "exp6" -> Experiments.exp6 ()
      | "exp7" -> Experiments.exp7 ()
      | "exp8" -> Experiments.exp8 ()
      | "exp9" -> Experiments.exp9 ()
      | "ablations" -> Experiments.ablations ()
      | "overload" -> Experiments.overload ()
      | "recovery" -> Experiments.recovery ()
      | "smoke" -> Experiments.smoke ()
      | "sharded" -> Experiments.sharded ()
      | "ha_failover" -> Experiments.ha_failover ()
      | "micro" -> run_micro ()
      | "all" -> Experiments.all ()
      | other ->
        Printf.printf "unknown argument %S\n" other;
        usage ();
        exit 2)
    args;
  (match json_path with
  | Some path ->
    Json.to_file path (Experiments.json_output ());
    Printf.printf "\n(json results written to %s)\n" path
  | None -> ());
  Printf.printf "\n(total bench wall time: %.1fs)\n" (Unix.gettimeofday () -. t0)
