(* phoebe_check: the repository's static gate over the typed ASTs of the
   kernel libraries (DESIGN.md section 4k). Orchestrates the cmt loader,
   the per-unit determinism and idiom rules (Lint), per-unit effect
   extraction, the effect-summary fixpoint and the interprocedural rule
   families; findings are filtered through source-comment allow pragmas
   (Pragma) and rendered deterministically (byte-identical across runs
   on the same tree). *)

type config = {
  cmt_dirs : string list;
  src_root : string;
  recovery_units : string list;  (** units whose functions are recovery entry points *)
}

(* WAL replay, the record codec and the log-shipping path: an
   exception in any of them turns a crash into a failed restart. *)
let default_config =
  {
    cmt_dirs = [];
    src_root = ".";
    recovery_units = [ "Recovery"; "Wal"; "Record"; "Quorum" ];
  }

type result = {
  findings : Report.finding list;
  order_edges : (string * string) list;  (** static acquisition-order class edges *)
  n_units : int;
  n_defs : int;
  rendered : string;
}

(* ------------------------------------------------------------------ *)

let loc_pair (l : Extract.loc) = (l.Extract.file, l.Extract.line)

let chain_text path =
  String.concat " -> " (List.map (fun (fqn, _) -> fqn) path)

(* latch-order-cycle: report every class edge that closes a cycle
   (excluding self-edges: intra-class ordering — e.g. two buffer-frame
   latches — is by instance and only checkable at runtime). One finding
   per 2-cycle pair or larger SCC, deterministic. *)
let cycle_findings edges =
  let nodes = List.sort_uniq String.compare (List.concat_map (fun (a, b, _) -> [ a; b ]) edges) in
  let succs n =
    List.filter_map (fun (a, b, _) -> if String.equal a n && not (String.equal b n) then Some b else None) edges
  in
  let witness a b =
    match List.find_opt (fun (x, y, _) -> String.equal x a && String.equal y b) edges with
    | Some (_, _, w) -> w
    | None -> "(indirect)"
  in
  (* reachability ignoring self-edges *)
  let reaches src dst =
    let seen = Hashtbl.create 16 in
    let rec go n =
      String.equal n dst
      || (not (Hashtbl.mem seen n))
         && begin
              Hashtbl.add seen n ();
              List.exists go (succs n)
            end
    in
    List.exists go (succs src)
  in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if String.compare a b < 0 && reaches a b && reaches b a then
            Some
              {
                Report.rule = "latch-order-cycle";
                file = "<order-graph>";
                line = 0;
                extra = [];
                msg =
                  Printf.sprintf
                    "static lock-order cycle between %s and %s; forward witness: %s; backward \
                     witness: %s"
                    a b (witness a b) (witness b a);
              }
          else None)
        nodes)
    nodes

(* hot-path-alloc / recovery-raise: BFS from entry points to defs with
   direct effect sites of the matching kind. A call site that carries an
   allow for [rule] is a cut: the callee is not reached through it, so
   one pragma names a cold branch (a lock wait, a buffer miss, the
   frozen tier) instead of one per allocation behind it. *)
let reach_findings g ~allowed ~entries ~kind ~rule ~describe =
  let cut (loc : Extract.loc) = allowed ~rule ~file:loc.Extract.file ~line:loc.Extract.line in
  List.concat_map
    (fun (entry : Extract.def) ->
      let paths = Lattice.reachable_with_paths ~cut g entry.Extract.fqn in
      let reached = Hashtbl.fold (fun fqn path acc -> (fqn, path) :: acc) paths [] in
      let reached = List.sort (fun (a, _) (b, _) -> String.compare a b) reached in
      List.concat_map
        (fun (fqn, path) ->
          match Hashtbl.find_opt g.Lattice.defs fqn with
          | None -> []
          | Some d ->
            (* one finding per effect site: each needs its own pragma *)
            List.map
              (fun (prim, (loc : Extract.loc)) ->
                {
                  Report.rule;
                  file = loc.Extract.file;
                  line = loc.Extract.line;
                  extra = [ loc_pair entry.Extract.def_loc ];
                  msg =
                    (if path = [] then
                       Printf.sprintf "%s %s (%s)" entry.Extract.fqn (describe prim) prim
                     else
                       Printf.sprintf "%s reaches %s which %s (%s); chain: %s" entry.Extract.fqn
                         fqn (describe prim) prim
                         (chain_text ((entry.Extract.fqn, entry.Extract.def_loc) :: path)));
                })
              (Lattice.direct_sites d ~kind))
        reached)
    entries

let analyze config =
  let loaded = Loader.load_dirs config.cmt_dirs in
  let defs =
    List.concat_map (fun u -> Extract.defs_of_unit ~lib_roots:loaded.Loader.lib_roots u)
      loaded.Loader.units
  in
  let g = Lattice.build defs in
  Lattice.fixpoint g;
  Lattice.final_pass g;
  let edges = Lattice.order_edges g in
  (* pragma tables per source file *)
  let pragma_cache : (string, Pragma.t) Hashtbl.t = Hashtbl.create 64 in
  let pragmas_for unit_source file =
    match Hashtbl.find_opt pragma_cache file with
    | Some p -> p
    | None ->
      let p =
        let candidates =
          [ Filename.concat config.src_root file; file; unit_source ]
        in
        match List.find_opt Sys.file_exists candidates with
        | Some path -> Pragma.of_file path
        | None -> Pragma.empty
      in
      Hashtbl.replace pragma_cache file p;
      p
  in
  (* hot entry points: defs with the hot-path tag just above *)
  let hot_entries =
    List.filter
      (fun (d : Extract.def) ->
        d.Extract.is_fun
        && Pragma.is_hot_entry
             (pragmas_for d.Extract.source d.Extract.def_loc.Extract.file)
             ~def_line:d.Extract.def_loc.Extract.line)
      defs
  in
  let recovery_entries =
    List.filter
      (fun (d : Extract.def) ->
        d.Extract.is_fun && List.exists (String.equal d.Extract.unit_name) config.recovery_units)
      defs
  in
  (* an allow naming no rule suppresses nothing; most likely it outlived
     the rule it was written for *)
  let unknown_pragmas (u : Loader.unit_info) =
    Pragma.allows (pragmas_for u.Loader.source u.Loader.source)
    |> List.filter_map (fun (rule, line) ->
           if List.exists (String.equal rule) Report.rules then None
           else
             Some
               {
                 Report.rule = "unknown-pragma";
                 file = u.Loader.source;
                 line;
                 extra = [];
                 msg = Printf.sprintf "allow pragma names %s, which is no phoebe_check rule" rule;
               })
  in
  let allowed ~rule ~file ~line = Pragma.allowed (pragmas_for "" file) ~rule ~line in
  let findings =
    g.Lattice.findings
    @ cycle_findings edges
    @ reach_findings g ~allowed ~entries:hot_entries ~kind:`Alloc ~rule:"hot-path-alloc"
        ~describe:(fun _ -> "allocates on the heap")
    @ reach_findings g ~allowed ~entries:recovery_entries ~kind:`Raise ~rule:"recovery-raise"
        ~describe:(fun _ -> "may raise out of recovery")
    @ List.concat_map (fun u -> Lint.findings u @ unknown_pragmas u) loaded.Loader.units
  in
  (* pragma filtering: a finding is suppressed by an allow at its site or
     at any of its extra locations (e.g. the chain's entry point) *)
  let suppressed (f : Report.finding) =
    List.exists
      (fun (file, line) -> file <> "<order-graph>" && allowed ~rule:f.Report.rule ~file ~line)
      ((f.Report.file, f.Report.line) :: f.Report.extra)
  in
  let findings = Report.sort (List.filter (fun f -> not (suppressed f)) findings) in
  let n_units = List.length loaded.Loader.units in
  let n_defs = List.length defs in
  let rendered = Report.render ~units:n_units ~defs:n_defs findings in
  {
    findings;
    order_edges = List.map (fun (a, b, _) -> (a, b)) edges;
    n_units;
    n_defs;
    rendered;
  }
