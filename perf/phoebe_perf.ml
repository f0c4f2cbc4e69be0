(* phoebe_perf: PhoebeDB's end-to-end and per-layer benchmark.

     phoebe_perf.exe run --workload <w> [--seed n] [--seconds s] [--trace 0|1] [--json f]
     phoebe_perf.exe run --all [--seed n] [--seconds s]
     phoebe_perf.exe trace --workload <w> [--seed n] [--seconds s] [--json f]
     phoebe_perf.exe agree <dirA> <dirB> [--bench BENCHMARK.json]
     phoebe_perf.exe selftest [--bench BENCHMARK.json]

   [run] prints progress on stderr and, as the last line of stdout, one
   JSON object: correct, attempted, failed and the metrics (end-to-end
   ones untraced, per-layer ones with [--trace 1]). perf/README.md lists
   workloads and metrics. *)

module Json = Phoebe_util.Json
module W = Workloads

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("phoebe_perf: " ^ msg); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Output *)

(* All the digits a float has; non-finite values are a benchmark bug. *)
let number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else die "metric %s is not finite (%f)" name v

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> quote k ^ ":" ^ v) fields) ^ "}"

let result_fields (r : W.result) =
  [
    ("correct", string_of_bool r.correct);
    ("attempted", string_of_int r.attempted);
    ("failed", string_of_int r.failed);
    ( "metrics",
      obj (List.map (fun (m : W.metric) -> (m.name, obj [ ("value", number m.name m.value); ("unit", quote m.unit) ])) r.metrics)
    );
  ]

(* The run's record for [--json] and [agree]: the result line plus the
   workload, seed, every check and, when traced, the host spans. *)
let result_file ~workload ~seed ~traced (r : W.result) =
  obj
    ([ ("workload", quote workload); ("seed", string_of_int seed); ("trace", string_of_bool traced) ]
    @ result_fields r
    @ [ ("checks", obj (List.map (fun (name, ok) -> (name, string_of_bool ok)) r.checks)) ]
    @ if traced then [ ("host_spans", Json.to_string (Span.to_json ())) ] else [])

(* ------------------------------------------------------------------ *)
(* Arguments *)

type args = {
  workload : string option;
  seed : int;
  seconds : float;
  traced : bool;
  json : string option;
  all : bool;
  bench : string;
  positional : string list;
}

let parse argv =
  let int_arg k v = match int_of_string_opt v with Some n -> n | None -> die "%s needs an integer, got %S" k v in
  let rec go a = function
    | [] -> { a with positional = List.rev a.positional }
    | "--workload" :: v :: rest -> go { a with workload = Some v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when s > 0.0 && s <= 600.0 -> go { a with seconds = s } rest
      | _ -> die "--seconds needs a number in (0, 600], got %S" v)
    | "--trace" :: v :: rest -> (
      match v with "0" -> go { a with traced = false } rest | "1" -> go { a with traced = true } rest | _ -> die "--trace is 0 or 1")
    | "--json" :: v :: rest -> go { a with json = Some v } rest
    | "--bench" :: v :: rest -> go { a with bench = v } rest
    | "--all" :: rest -> go { a with all = true } rest
    | flag :: [] when String.length flag > 2 && String.sub flag 0 2 = "--" -> die "%s needs a value" flag
    | v :: rest -> go { a with positional = v :: a.positional } rest
  in
  go
    { workload = None; seed = 42; seconds = 10.0; traced = false; json = None; all = false; bench = "BENCHMARK.json"; positional = [] }
    argv

let spec_of name =
  match List.find_opt (fun (s : W.spec) -> s.name = name) W.specs with
  | Some s -> s
  | None -> die "unknown workload %S (have: %s)" name (String.concat ", " (List.map (fun (s : W.spec) -> s.name) W.specs))

(* ------------------------------------------------------------------ *)
(* run *)

let run_one a name =
  let spec = spec_of name in
  Printf.eprintf "phoebe_perf: %s seed %d, %.0f s%s\n%!" name a.seed a.seconds (if a.traced then ", traced" else "");
  let r =
    if a.traced then W.trace spec ~seed:a.seed ~seconds:a.seconds ~quick:false
    else W.run spec ~seed:a.seed ~seconds:a.seconds ~quick:false
  in
  List.iter (fun (name, ok) -> if not ok then Printf.eprintf "  CHECK FAILED: %s\n" name) r.checks;
  List.iter (fun (m : W.metric) -> Printf.eprintf "  %-40s %s %s\n" m.name (number m.name m.value) m.unit) r.metrics;
  let json =
    match a.json with
    | Some f -> Some f
    | None when a.traced ->
      (try Sys.mkdir "_perf" 0o755 with Sys_error _ -> ());
      Some (Printf.sprintf "_perf/trace-%s-%d.json" name a.seed)
    | None -> None
  in
  Option.iter
    (fun f -> Out_channel.with_open_text f (fun oc -> output_string oc (result_file ~workload:name ~seed:a.seed ~traced:a.traced r ^ "\n")))
    json;
  print_endline (obj (result_fields r));
  if not r.correct then exit 1

(* Every workload in its own child process, one after another. *)
let run_all a =
  let ok = ref true in
  List.iter
    (fun (spec : W.spec) ->
      let argv =
        [| Sys.executable_name; "run"; "--workload"; spec.name; "--seed"; string_of_int a.seed; "--seconds"; Printf.sprintf "%g" a.seconds |]
      in
      let ic = Unix.open_process_args_in Sys.executable_name argv in
      let rec last prev = match input_line ic with line -> last line | exception End_of_file -> prev in
      let line = last "" in
      let status = Unix.close_process_in ic in
      match (status, Json.of_string line) with
      | Unix.WEXITED 0, Ok (Json.Obj fields) ->
        (match List.assoc_opt "metrics" fields with
        | Some (Json.Obj ms) ->
          List.iter
            (fun (name, m) ->
              match m with
              | Json.Obj [ ("value", v); ("unit", Json.Str u) ] ->
                let v = match v with Json.Float f -> f | Json.Int i -> float i | _ -> nan in
                Printf.printf "%s %s %s %s\n%!" spec.name name (number name v) u
              | _ -> ())
            ms
        | _ -> ())
      | _ ->
        ok := false;
        Printf.printf "%s FAILED\n%!" spec.name)
    W.specs;
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json *)

type declared = { d_name : string; d_unit : string; better : string; bound : float option }

let load_bench path =
  let field k = function Json.Obj fs -> List.assoc_opt k fs | _ -> None in
  let str k j = match field k j with Some (Json.Str s) -> s | _ -> die "%s: missing string %S" path k in
  let num k j = match field k j with Some (Json.Float f) -> Some f | Some (Json.Int i) -> Some (float i) | _ -> None in
  let list k j = match field k j with Some (Json.List l) -> l | _ -> die "%s: missing list %S" path k in
  match Json.of_file path with
  | Error e -> die "%s: %s" path e
  | Ok j ->
    let metrics k =
      List.map (fun m -> { d_name = str "name" m; d_unit = str "unit" m; better = str "better" m; bound = num "bound" m }) (list k j)
    in
    (List.map (str "name") (list "workloads" j), metrics "end_to_end", metrics "per_layer")

(* ------------------------------------------------------------------ *)
(* agree *)

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] (exclusive
   method) gives them. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else begin
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

let read_runs dir =
  let files = try Sys.readdir dir with Sys_error e -> die "%s" e in
  Array.sort compare files;
  Array.to_list files
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         match Json.of_file (Filename.concat dir f) with
         | Ok (Json.Obj fields) -> (
           match (List.assoc_opt "workload" fields, List.assoc_opt "metrics" fields) with
           | Some (Json.Str w), Some (Json.Obj ms) ->
             Some
               ( w,
                 List.filter_map
                   (fun (name, m) ->
                     match m with
                     | Json.Obj (("value", Json.Float v) :: _) -> Some (name, v)
                     | Json.Obj (("value", Json.Int v) :: _) -> Some (name, float v)
                     | _ -> None)
                   ms )
           | _ -> None)
         | _ -> None)

let agree a =
  let dir_a, dir_b = match a.positional with [ x; y ] -> (x, y) | _ -> die "agree needs two directories" in
  let _, e2e, layer = load_bench a.bench in
  let runs_a = read_runs dir_a and runs_b = read_runs dir_b in
  let values runs w name = List.concat_map (fun (w', ms) -> if w' = w then Option.to_list (List.assoc_opt name ms) else []) runs in
  let workloads = List.sort_uniq compare (List.map fst (runs_a @ runs_b)) in
  let bad = ref 0 in
  Printf.printf "%-12s %-40s %33s %33s  %s\n" "workload" "metric" "A q1 / median / q3" "B q1 / median / q3" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun d ->
          match (values runs_a w d.d_name, values runs_b w d.d_name) with
          | [], _ | _, [] -> ()
          | va, vb ->
            let a1, am, a3 = quartiles va and b1, bm, b3 = quartiles vb in
            let change = if am = 0.0 then (if bm = 0.0 then 0.0 else infinity) else (bm -. am) /. Float.abs am in
            let worse = if d.better = "higher" then change < 0.0 else change > 0.0 in
            let verdict =
              match d.bound with
              | _ when List.sort compare va = List.sort compare vb -> "identical"
              | None -> ""
              | Some bound when Float.abs change > bound ->
                incr bad;
                Printf.sprintf "DIFFERS %+.2f%% (%s, bound %.0f%%)" (100.0 *. change) (if worse then "worse" else "better")
                  (100.0 *. bound)
              | Some _ -> Printf.sprintf "agrees %+.2f%%" (100.0 *. change)
            in
            Printf.printf "%-12s %-40s %10.4g %10.4g %10.4g  %10.4g %10.4g %10.4g  %s\n" w d.d_name a1 am a3 b1 bm b3 verdict)
        (e2e @ layer))
    workloads;
  if !bad > 0 then begin
    Printf.printf "%d metric(s) differ by more than their bound\n" !bad;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* selftest *)

(* Every workload for 10 virtual ms: every declared metric is emitted
   with its unit, all checks pass, two same-seed runs give byte-identical
   repeatable metrics and another seed changes them. *)
let selftest a =
  let workloads, e2e, layer = load_bench a.bench in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  if workloads <> List.map (fun (s : W.spec) -> s.name) W.specs then fail "BENCHMARK.json workloads differ from the specs";
  let same_metrics what declared (r : W.result) =
    let emitted = List.map (fun (m : W.metric) -> (m.name, m.unit)) r.metrics in
    let wanted = List.map (fun d -> (d.d_name, d.d_unit)) declared in
    if emitted <> wanted then
      fail "%s: emitted metrics differ from BENCHMARK.json (missing: %s; extra: %s)" what
        (String.concat " " (List.filter_map (fun (n, u) -> if List.mem (n, u) emitted then None else Some (n ^ "/" ^ u)) wanted))
        (String.concat " " (List.filter_map (fun (n, u) -> if List.mem (n, u) wanted then None else Some (n ^ "/" ^ u)) emitted));
    List.iter (fun (m : W.metric) -> if not (Float.is_finite m.value) then fail "%s: %s is not finite" what m.name) r.metrics;
    List.iter (fun (name, ok) -> if not ok then fail "%s: check failed: %s" what name) r.checks
  in
  let repeatable (r : W.result) =
    String.concat "\n"
      (List.filter_map (fun (m : W.metric) -> if m.repeatable then Some (m.name ^ " " ^ number m.name m.value) else None) r.metrics)
  in
  List.iter
    (fun (spec : W.spec) ->
      let run seed = W.run spec ~seed ~seconds:0.0 ~quick:true in
      let r1 = run 42 and r2 = run 42 and r3 = run 43 in
      same_metrics (spec.name ^ " run") e2e r1;
      if repeatable r1 <> repeatable r2 then fail "%s: same seed, different metrics:\n%s\n--\n%s" spec.name (repeatable r1) (repeatable r2);
      if repeatable r1 = repeatable r3 then fail "%s: seeds 42 and 43 give identical metrics" spec.name;
      same_metrics (spec.name ^ " trace") layer (W.trace spec ~seed:42 ~seconds:0.0 ~quick:true))
    W.specs;
  match !failures with
  | [] -> print_endline "phoebe_perf selftest: ok"
  | fs ->
    List.iter (fun f -> prerr_endline ("FAIL " ^ f)) (List.rev fs);
    exit 1

(* ------------------------------------------------------------------ *)

(* [run], [trace] and [selftest] take flags only: a stray word is a typo. *)
let flags_only rest =
  let a = parse rest in
  if a.positional <> [] then die "unexpected argument(s): %s" (String.concat " " a.positional);
  a

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> (
    let a = flags_only rest in
    match (a.all, a.workload) with
    | true, _ -> run_all a
    | false, Some w -> run_one a w
    | false, None -> die "run needs --workload <name> or --all")
  | _ :: "trace" :: rest -> (
    let a = flags_only rest in
    match a.workload with Some w -> run_one { a with traced = true } w | None -> die "trace needs --workload <name>")
  | _ :: "agree" :: rest -> agree (parse rest)
  | _ :: "selftest" :: rest -> selftest (flags_only rest)
  | _ -> die "usage: phoebe_perf.exe (run|trace|agree|selftest) ... (see perf/README.md)"
