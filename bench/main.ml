(* Benchmark entry point.

     dune exec bench/main.exe                 # every experiment
     dune exec bench/main.exe -- exp1 exp7    # selected experiments

   The harnesses regenerate the paper's tables and figures (see
   DESIGN.md's per-experiment index). Host-time probes of the kernel's
   hot code paths live in perf/probes.ml. *)
module Json = Phoebe_util.Json

let usage () =
  print_endline
    ("usage: bench/main.exe ["
    ^ String.concat " " (List.map fst Experiments.harnesses)
    ^ " all smoke]\n\
      \       [--experiment <name>]   run <name> (same as passing it positionally)\n\
      \       [--seed <n>]            workload seed for every harness (default 42)\n\
      \       [--json <path>]         write machine-readable results (simulated quantities only)\n\
      \       [--check-json <path>]   validate that <path> parses as JSON, then exit\n\
      \       [--sanitize]            enable the kernel sanitizer plane (sanitize.* counters)")

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

let () =
  let t0 = Unix.gettimeofday () in
  let args = List.tl (Array.to_list Sys.argv) in
  let json_path, args = extract_opt "--json" args in
  let check_path, args = extract_opt "--check-json" args in
  let seed_arg, args = extract_opt "--seed" args in
  let experiment, args = extract_opt "--experiment" args in
  let sanitize = List.mem "--sanitize" args in
  let args = List.filter (fun a -> a <> "--sanitize") args in
  (match seed_arg with
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> Experiments.opt_seed := n
    | None ->
      prerr_endline "--seed requires an integer";
      exit 2)
  | None -> ());
  let args = match experiment with Some name -> args @ [ name ] | None -> args in
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
  let args = if args = [] then [ "all" ] else args in
  let runs =
    List.map
      (fun arg ->
        match
          List.assoc_opt arg
            ((("all", Experiments.all) :: ("smoke", Experiments.smoke) :: Experiments.harnesses))
        with
        | Some run -> run
        | None ->
          Printf.printf "unknown argument %S\n" arg;
          usage ();
          exit 2)
      args
  in
  print_endline "PhoebeDB reproduction benchmarks";
  print_endline "(simulated 2x26-core 2.2GHz CPU, PM9A3-class NVMe devices; scaled TPC-C --";
  print_endline " see EXPERIMENTS.md for the scale mapping and paper-vs-measured tables)";
  List.iter (fun run -> run ()) runs;
  (match json_path with
  | Some path ->
    Json.to_file path (Experiments.json_output ());
    Printf.printf "\n(json results written to %s)\n" path
  | None -> ());
  Printf.printf "\n(total bench wall time: %.1fs)\n" (Unix.gettimeofday () -. t0);
  if !Experiments.failures > 0 then begin
    Printf.printf "%d harness check(s) failed (lines marked !!)\n" !Experiments.failures;
    exit 1
  end
