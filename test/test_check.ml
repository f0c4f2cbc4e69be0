(* Static-analyzer tests: each rule family must fire by name on the
   seeded fixtures in test/check_fixtures (with call-chain witnesses and
   the documented exemptions), pragmas are honored only inside comments,
   the shipped lib/ tree must analyze clean,
   the rendered report must be byte-identical across runs, and the
   runtime sanitizer's observed lock-order class edges from a sanitized
   TPC-C run must be a subset of the static acquisition-order graph. *)
open Phoebe_core
module Check = Phoebe_check.Check
module Report = Phoebe_check.Report
module Pragma = Phoebe_check.Pragma
module Sanitize = Phoebe_sanitize.Sanitize
module Latch = Phoebe_storage.Latch
module T = Phoebe_tpcc.Tpcc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Tests run from _build/default/test; the kernel cmts live under
   ../lib and the fixture cmts under the fixture library's .objs dir.
   The fixture analysis must include the lib cmts: alias-unit roots
   (Phoebe_storage, ...) are what let the extractor resolve the
   fixtures' Latch/Scheduler calls to the latch specials. *)
let lib_cmts = "../lib"
let fixture_cmts = "check_fixtures/.check_fixtures.objs/byte"
let src_root = ".."

let require_dir d =
  if not (Sys.file_exists d && Sys.is_directory d) then
    Alcotest.failf "cmt directory %s not found (cwd %s); build the tree first" d (Sys.getcwd ())

let analyze_fixtures () =
  require_dir lib_cmts;
  require_dir fixture_cmts;
  Check.analyze
    {
      Check.cmt_dirs = [ lib_cmts; fixture_cmts ];
      src_root;
      recovery_units = [ "Fix_raise" ];
    }

let analyze_lib () =
  require_dir lib_cmts;
  Check.analyze { Check.default_config with Check.cmt_dirs = [ lib_cmts ]; src_root }

let with_rule r rule = List.filter (fun (f : Report.finding) -> f.Report.rule = rule) r.Check.findings

(* ------------------------------------------------------------------ *)
(* Each rule family fires by name on its fixture *)

let test_park_while_latched_fixture () =
  let r = analyze_fixtures () in
  let fs = with_rule r "park-while-latched" in
  List.iter
    (fun (f : Report.finding) -> check_bool "sited in fix_park.ml" true (contains f.Report.file "fix_park.ml"))
    fs;
  let named s = List.filter (fun (f : Report.finding) -> contains f.Report.msg s) fs in
  (* exactly two: fault_under_latch suspends via Scheduler.io_wait,
     whose Io_wait park is the one exempt phase *)
  check_int "park-while-latched findings" 2 (List.length fs);
  (match named "Fix_park.update" with
  | [ f ] ->
    (* the full call chain is the witness; the parking leaf and the
       latched caller must both be named *)
    check_bool "witness names the parking function" true (contains f.Report.msg "wait_for_signal")
  | l -> Alcotest.failf "expected one finding in Fix_park.update, got %d" (List.length l));
  check_int "a Remote_wait park under a latch is reported" 1
    (List.length (named "Fix_park.remote_under_latch"));
  check_int "the io_wait under a latch stays clean" 0 (List.length (named "fault_under_latch"))

let test_latch_order_cycle_fixture () =
  let r = analyze_fixtures () in
  match with_rule r "latch-order-cycle" with
  | [ f ] ->
    check_bool "cycle names fix_order.la" true (contains f.Report.msg "fix_order.la");
    check_bool "cycle names fix_order.lb" true (contains f.Report.msg "fix_order.lb");
    check_bool "forward witness recorded" true (contains f.Report.msg "a_then_b");
    check_bool "backward witness recorded" true (contains f.Report.msg "b_then_a")
  | fs -> Alcotest.failf "expected exactly one latch-order-cycle finding, got %d" (List.length fs)

let test_hot_path_alloc_fixture () =
  let r = analyze_fixtures () in
  let hot = with_rule r "hot-path-alloc" in
  check_bool "hot-path-alloc fired" true (hot <> []);
  List.iter
    (fun (f : Report.finding) ->
      check_bool "sited in fix_hot.ml" true (contains f.Report.file "fix_hot.ml");
      (* only the tagged entry point is hot: cold_entry allocates the
         same way and must stay clean *)
      check_bool "chain starts at the tagged entry" true (contains f.Report.msg "Fix_hot.hot_entry");
      check_bool "chain reaches the allocating helper" true (contains f.Report.msg "helper"))
    hot;
  check_bool "Buffer.to_bytes counts as an allocation" true
    (List.exists (fun (f : Report.finding) -> contains f.Report.msg "Buffer.to_bytes") hot);
  check_bool "an allowed call site cuts the chain" false
    (List.exists (fun (f : Report.finding) -> contains f.Report.msg "rare_helper") hot)

let test_recovery_raise_fixture () =
  let r = analyze_fixtures () in
  let raises = with_rule r "recovery-raise" in
  check_bool "recovery-raise fired" true (raises <> []);
  List.iter
    (fun (f : Report.finding) ->
      check_bool "sited in fix_raise.ml" true (contains f.Report.file "fix_raise.ml");
      check_bool "names the raising partial" true (contains f.Report.msg "Hashtbl.find");
      check_bool "the _opt path stays clean" false (contains f.Report.msg "resolve_opt"))
    raises;
  (* both the direct site and the chain through [lookup] are reported *)
  check_bool "direct and transitive entry points both reported" true (List.length raises >= 2)

(* Per-unit rules: fix_lint.ml marks each seeded line "seeds <rule>". A
   rule must fire on exactly its marked lines, so the exemptions there
   (constant-constructor and tag operands, a local compare, a comparison
   at int, mutating another table) stay clean. *)
let test_lint_rules_fixture () =
  let r = analyze_fixtures () in
  let in_fixture (f : Report.finding) = contains f.Report.file "fix_lint.ml" in
  let file =
    match List.find_opt in_fixture r.Check.findings with
    | Some f -> f.Report.file
    | None -> Alcotest.fail "no finding in fix_lint.ml"
  in
  let ic = open_in_bin (Filename.concat src_root file) in
  let lines = String.split_on_char '\n' (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  List.iter
    (fun rule ->
      let seeded =
        List.mapi (fun i l -> (i + 1, l)) lines
        |> List.filter_map (fun (n, l) -> if contains l ("seeds " ^ rule) then Some n else None)
      in
      let fired =
        List.filter in_fixture (with_rule r rule)
        |> List.map (fun (f : Report.finding) -> f.Report.line)
        |> List.sort_uniq Int.compare
      in
      check_bool (rule ^ " is seeded") true (seeded <> []);
      Alcotest.(check (list int)) (rule ^ " fires on exactly its seeded lines") seeded fired)
    [ "random"; "wall-clock"; "poly-compare"; "hashtbl-iter-mutate"; "missing-mli"; "unknown-pragma" ]

(* Pragmas are read from comments only. *)
let test_pragma_scanning () =
  let allowed src ~rule ~line = Pragma.allowed (Pragma.of_source src) ~rule ~line in
  let next = "\nlet x = 1\n" in
  check_bool "a comment pragma covers the next line" true
    (allowed ("(* lint: allow random *)" ^ next) ~rule:"random" ~line:2);
  check_bool "a line pragma stops there" false
    (allowed ("(* lint: allow random *)\n" ^ next) ~rule:"random" ~line:3);
  check_bool "a pragma in a string is not honored" false
    (allowed ("let s = \"lint: allow random file\"" ^ next) ~rule:"random" ~line:2);
  check_bool "a pragma in a quoted string is not honored" false
    (allowed ("let s = {|lint: allow random file|}" ^ next) ~rule:"random" ~line:2);
  check_bool "a nested comment does not end the outer one" true
    (allowed ("(* outer (* inner *) lint: allow random *)" ^ next) ~rule:"random" ~line:2);
  check_bool "a string in a comment may hold *)" true
    (allowed ("(* \"*)\" lint: allow random *)" ^ next) ~rule:"random" ~line:2);
  let two = "let x = 1 (* lint: allow random — a *) (* lint: allow wall-clock — b *)\n" in
  check_bool "first of two pragmas on one line" true (allowed two ~rule:"random" ~line:1);
  check_bool "second of two pragmas on one line" true (allowed two ~rule:"wall-clock" ~line:1);
  check_bool "file scope covers every line" true
    (allowed ("(* lint: allow random file *)\n" ^ String.make 40 '\n') ~rule:"random" ~line:40);
  Alcotest.(check (list (pair string int)))
    "only rule-shaped words are pragmas" [ ("random", 1) ]
    (Pragma.allows (Pragma.of_source "(* lint: allow random *) (* lint: allow <rule> *)\n"));
  let hot src = Pragma.is_hot_entry (Pragma.of_source src) ~def_line:2 in
  check_bool "a hot tag in a comment marks the next definition" true
    (hot "(* lint: hot-path *)\nlet f () = ()\n");
  check_bool "a hot tag in a string marks nothing" false (hot "let s = \"lint: hot-path\"\nlet f () = ()\n")

let test_fixture_findings_confined () =
  let r = analyze_fixtures () in
  List.iter
    (fun (f : Report.finding) ->
      if f.Report.file = "<order-graph>" then
        check_bool "order-graph finding is the fixture cycle" true (contains f.Report.msg "fix_order")
      else
        check_bool
          (Printf.sprintf "finding outside fixtures: %s:%d %s" f.Report.file f.Report.line
             f.Report.rule)
          true
          (contains f.Report.file "check_fixtures"))
    r.Check.findings

(* ------------------------------------------------------------------ *)
(* Shipped tree is clean; report is deterministic *)

let test_lib_tree_clean () =
  let r = analyze_lib () in
  check_bool "analyzer saw the whole kernel" true (r.Check.n_units >= 50);
  check_bool "analyzer extracted definitions" true (r.Check.n_defs >= 500);
  (match r.Check.findings with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "lib/ must analyze clean; first finding: %s" (Report.render_finding f));
  check_int "zero findings on the shipped tree" 0 (List.length r.Check.findings)

let test_report_deterministic () =
  let r1 = analyze_fixtures () in
  let r2 = analyze_fixtures () in
  Alcotest.(check string) "rendered report is byte-identical across runs" r1.Check.rendered
    r2.Check.rendered;
  check_bool "report is non-trivial" true (String.length r1.Check.rendered > 0)

(* ------------------------------------------------------------------ *)
(* Cross-validation against the runtime sanitizer: every lock-order
   class edge the sanitizer observes during execution must already be
   in the static graph (the static graph is a superset — it covers
   paths the schedule never took). *)

let tiny_scale =
  {
    T.districts_per_warehouse = 2;
    customers_per_district = 15;
    items = 80;
    initial_orders_per_district = 8;
  }

let test_observed_edges_subset_of_static () =
  Fun.protect ~finally:(fun () -> Sanitize.disable ()) @@ fun () ->
  let cfg =
    { Config.default with Config.n_workers = 2; slots_per_worker = 4; sanitize = true }
  in
  let db = Db.create cfg in
  let t = T.load db ~warehouses:1 ~scale:tiny_scale ~seed:11 () in
  let r = T.run_mix t ~concurrency:4 ~duration_ns:100_000_000 ~seed:5 () in
  check_bool "sanitized run commits transactions" true (r.T.total_committed > 20);
  (* seed one classed nested acquisition so the subset check is not
     vacuously over an empty observed set; its classes come from the
     fixture tree, whose static graph carries the edge in both
     directions (that is the seeded cycle) *)
  let la = Latch.create () and lb = Latch.create () in
  Latch.set_class la "fix_order.la";
  Latch.set_class lb "fix_order.lb";
  Latch.acquire_exclusive la;
  Latch.acquire_exclusive lb;
  Latch.release_exclusive lb;
  Latch.release_exclusive la;
  let observed = Sanitize.order_class_edges () in
  check_bool "observed set carries the seeded classed edge" true
    (List.mem ("fix_order.la", "fix_order.lb") observed);
  let static = (analyze_fixtures ()).Check.order_edges in
  List.iter
    (fun (a, b) ->
      check_bool
        (Printf.sprintf "observed edge %s -> %s is in the static graph" a b)
        true
        (List.mem (a, b) static))
    observed

let () =
  Alcotest.run "check"
    [
      ( "check",
        [
          Alcotest.test_case "park-while-latched fires on fixture" `Quick
            test_park_while_latched_fixture;
          Alcotest.test_case "latch-order-cycle fires on fixture" `Quick
            test_latch_order_cycle_fixture;
          Alcotest.test_case "hot-path-alloc fires on fixture" `Quick test_hot_path_alloc_fixture;
          Alcotest.test_case "recovery-raise fires on fixture" `Quick test_recovery_raise_fixture;
          Alcotest.test_case "per-unit rules fire on exactly their seeded lines" `Quick
            test_lint_rules_fixture;
          Alcotest.test_case "pragmas honored only in comments" `Quick test_pragma_scanning;
          Alcotest.test_case "fixture findings confined to fixtures" `Quick
            test_fixture_findings_confined;
          Alcotest.test_case "shipped lib tree analyzes clean" `Quick test_lib_tree_clean;
          Alcotest.test_case "report byte-identical across runs" `Quick test_report_deterministic;
          Alcotest.test_case "observed lock-order edges subset of static" `Quick
            test_observed_edges_subset_of_static;
        ] );
    ]
