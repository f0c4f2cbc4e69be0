(* Effect summaries per function and the interprocedural fixpoint.

   The lattice per definition:
     may_park        : None | Some witness        (reaches a non-I/O
                       [Scheduler.park], directly or through a call)
     acq_excl        : set of latch classes the function may acquire
                       exclusively (transitive)
     holds_on_exit   : latch classes still held when it returns (net
                       acquisitions; drives caller held-state)
   All three grow monotonically and the class/def sets are finite, so
   iterating to a fixed point terminates.

   After convergence a final walk per definition carries the held-latch
   state through the act list and emits:
     - park-while-latched findings (direct park or call to a may-park
       callee while any latch is held), with the full call chain;
     - static acquisition-order edges (exclusive acquire of class D —
       directly or anywhere inside a callee — while exclusively holding
       class C).
   Allocation and raising reachability are plain BFS over the resolved
   call graph from the respective entry points. *)

type loc = Extract.loc

type why = Wdirect of loc | Wvia of string * loc  (** via callee fqn, at call site *)

type summary = {
  mutable park : why option;
  mutable acq_excl : (string, unit) Hashtbl.t;  (** latch classes *)
  mutable holds : string option list;  (** classes (or unknown) held on exit *)
}

type graph = {
  defs : (string, Extract.def) Hashtbl.t;
  summaries : (string, summary) Hashtbl.t;
  order : ((string * string), string) Hashtbl.t;  (** class edge -> witness text *)
  mutable findings : Report.finding list;
}

let find_def g cands = List.find_map (Hashtbl.find_opt g.defs) cands

let summary_of g fqn =
  match Hashtbl.find_opt g.summaries fqn with
  | Some s -> s
  | None ->
    let s = { park = None; acq_excl = Hashtbl.create 4; holds = [] } in
    Hashtbl.replace g.summaries fqn s;
    s

(* Resolve the accessor encoding from Extract.latch_class:
   "\x00accessor:cand1|cand2" -> the accessor's returns-field class. *)
let resolve_cls g cls =
  match cls with
  | Some s when String.length s > 10 && s.[0] = '\x00' ->
    let cands = String.split_on_char '|' (String.sub s 10 (String.length s - 10)) in
    (match find_def g cands with Some d -> d.Extract.returns_field | None -> None)
  | other -> other

let build defs_list =
  let g =
    {
      defs = Hashtbl.create 512;
      summaries = Hashtbl.create 512;
      order = Hashtbl.create 256;
      findings = [];
    }
  in
  List.iter (fun d -> Hashtbl.replace g.defs d.Extract.fqn d) defs_list;
  g

(* ------------------------------------------------------------------ *)
(* Fixpoint *)

(* Per-class max of two held-latch multisets, in [cmp] order. Held
   states are class lists in the fixpoint and (class, exclusive) pairs
   in the final walk, hence the comparator parameter. *)
let multiset_union cmp a b =
  let count l x = List.length (List.filter (fun y -> cmp x y = 0) l) in
  let keys = List.sort_uniq cmp (a @ b) in
  List.concat_map (fun k -> List.init (max (count a k) (count b k)) (fun _ -> k)) keys

let cls_compare = Option.compare String.compare

let held_compare (c, e) (c', e') =
  match cls_compare c c' with 0 -> Bool.compare e e' | n -> n

let rec summarize_acts g (s : summary) ~held acts changed =
  List.fold_left (fun held act -> summarize_act g s ~held act changed) held acts

and summarize_act g s ~held act changed =
  let set_park w = if s.park = None then (s.park <- Some w; changed := true) in
  let add_acq c =
    if not (Hashtbl.mem s.acq_excl c) then begin
      Hashtbl.replace s.acq_excl c ();
      changed := true
    end
  in
  match act with
  | Extract.Apark { exempt; loc } ->
    if not exempt then set_park (Wdirect loc);
    held
  | Extract.Aalloc _ | Extract.Araise _ -> held
  | Extract.Aacquire { cls; excl; loc = _ } ->
    let cls = resolve_cls g cls in
    if excl then Option.iter add_acq cls;
    cls :: held
  | Extract.Arelease { cls } ->
    let cls = resolve_cls g cls in
    let rec drop = function
      | [] -> []
      | h :: t -> if h = cls then t else h :: drop t
    in
    (* drop a matching class, else the most recent unknown, else newest *)
    if List.mem cls held then drop held
    else (match held with _ :: t -> t | [] -> [])
  | Extract.Awith { cls; excl; body; loc = _ } ->
    let cls = resolve_cls g cls in
    if excl then Option.iter add_acq cls;
    let inner = summarize_acts g s ~held:(cls :: held) body changed in
    (* balanced: the latch is released on exit either way *)
    ignore inner;
    held
  | Extract.Acall { cands; loc } -> (
    match find_def g cands with
    | None -> held
    | Some d ->
      let ds = summary_of g d.Extract.fqn in
      (match ds.park with Some _ -> set_park (Wvia (d.Extract.fqn, loc)) | None -> ());
      Hashtbl.iter (fun c () -> add_acq c) ds.acq_excl;
      List.rev_append ds.holds held)
  | Extract.Abranch branches ->
    let outs = List.map (fun b -> summarize_acts g s ~held b changed) branches in
    (match outs with
    | [] -> held
    | first :: rest -> List.fold_left (multiset_union cls_compare) first rest)

let fixpoint g =
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 64 do
    changed := false;
    incr rounds;
    Hashtbl.iter
      (fun fqn (d : Extract.def) ->
        let s = summary_of g fqn in
        let holds = summarize_acts g s ~held:[] d.Extract.acts changed in
        if List.length holds > List.length s.holds then begin
          s.holds <- holds;
          changed := true
        end)
      g.defs
  done

(* ------------------------------------------------------------------ *)
(* Witness chains *)

let rec park_chain g fqn depth =
  if depth > 12 then [ fqn ^ " -> ..." ]
  else
    match (summary_of g fqn).park with
    | None -> [ fqn ]
    | Some (Wdirect loc) -> [ Printf.sprintf "%s (parks at %s:%d)" fqn loc.file loc.line ]
    | Some (Wvia (callee, _)) -> fqn :: park_chain g callee (depth + 1)

let cls_label = function Some c -> c | None -> "<unclassed latch>"

(* ------------------------------------------------------------------ *)
(* Final walk: park-under-latch findings + static order edges *)

let add_order_edge g ~src ~dst ~witness =
  if not (Hashtbl.mem g.order (src, dst)) then Hashtbl.replace g.order (src, dst) witness

let rec final_acts g (d : Extract.def) ~held acts =
  List.fold_left (fun held act -> final_act g d ~held act) held acts

and record_edges g (d : Extract.def) ~held ~dst ~loc ~via =
  List.iter
    (fun (hcls, hexcl) ->
      if hexcl then
        match hcls with
        | Some src ->
          add_order_edge g ~src ~dst
            ~witness:
              (Printf.sprintf "%s at %s:%d%s while holding %s" d.Extract.fqn loc.Extract.file
                 loc.Extract.line
                 (match via with None -> "" | Some callee -> " (via " ^ callee ^ ")")
                 src)
        | None -> ())
    held

and final_act g d ~held act =
  let latched = held <> [] in
  match act with
  | Extract.Apark { exempt; loc } ->
    if (not exempt) && latched then
      g.findings <-
        {
          Report.rule = "park-while-latched";
          file = loc.Extract.file;
          line = loc.Extract.line;
          extra = [];
          msg =
            Printf.sprintf "%s parks while holding %s" d.Extract.fqn
              (String.concat ", " (List.map (fun (c, _) -> cls_label c) held));
        }
        :: g.findings;
    held
  | Extract.Aalloc _ | Extract.Araise _ -> held
  | Extract.Aacquire { cls; excl; loc } ->
    let cls = resolve_cls g cls in
    if excl then Option.iter (fun dst -> record_edges g d ~held ~dst ~loc ~via:None) cls;
    (cls, excl) :: held
  | Extract.Arelease { cls } ->
    let cls = resolve_cls g cls in
    let rec drop = function
      | [] -> []
      | (h, _) :: t when h = cls -> t
      | h :: t -> h :: drop t
    in
    if List.exists (fun (h, _) -> h = cls) held then drop held
    else (match held with _ :: t -> t | [] -> [])
  | Extract.Awith { cls; excl; body; loc } ->
    let cls = resolve_cls g cls in
    if excl then Option.iter (fun dst -> record_edges g d ~held ~dst ~loc ~via:None) cls;
    ignore (final_acts g d ~held:((cls, excl) :: held) body);
    held
  | Extract.Acall { cands; loc } -> (
    match find_def g cands with
    | None -> held
    | Some callee ->
      let cs = summary_of g callee.Extract.fqn in
      (* order edges from every exclusively-held class to everything the
         callee may acquire exclusively *)
      Hashtbl.iter
        (fun dst () -> record_edges g d ~held ~dst ~loc ~via:(Some callee.Extract.fqn))
        cs.acq_excl;
      if latched && cs.park <> None then
        g.findings <-
          {
            Report.rule = "park-while-latched";
            file = loc.Extract.file;
            line = loc.Extract.line;
            extra = [];
            msg =
              Printf.sprintf "%s calls a may-park function while holding %s; chain: %s"
                d.Extract.fqn
                (String.concat ", " (List.map (fun (c, _) -> cls_label c) held))
                (String.concat " -> " (d.Extract.fqn :: park_chain g callee.Extract.fqn 0));
          }
          :: g.findings;
      List.fold_left (fun held h -> (h, true) :: held) held cs.holds)
  | Extract.Abranch branches ->
    let outs = List.map (fun b -> final_acts g d ~held b) branches in
    (match outs with
    | [] -> held
    | first :: rest -> List.fold_left (multiset_union held_compare) first rest)

let final_pass g =
  let defs = Hashtbl.fold (fun _ d acc -> d :: acc) g.defs [] in
  let defs = List.sort (fun a b -> String.compare a.Extract.fqn b.Extract.fqn) defs in
  List.iter (fun d -> ignore (final_acts g d ~held:[] d.Extract.acts)) defs

let order_edges g =
  Hashtbl.fold (fun (src, dst) w acc -> (src, dst, w) :: acc) g.order []
  |> List.sort (fun (a, b, _) (c, d, _) ->
         match String.compare a c with 0 -> String.compare b d | n -> n)

(* ------------------------------------------------------------------ *)
(* Call-graph BFS for allocation / raising reachability *)

type site = { callee_fqn : string; site_loc : loc }

let call_sites (d : Extract.def) g =
  let out = ref [] in
  let rec go acts = List.iter go1 acts
  and go1 = function
    | Extract.Acall { cands; loc } -> (
      match find_def g cands with
      | Some callee -> out := { callee_fqn = callee.Extract.fqn; site_loc = loc } :: !out
      | None -> ())
    | Extract.Awith { body; _ } -> go body
    | Extract.Abranch bs -> List.iter go bs
    | Extract.Apark _ | Extract.Aalloc _ | Extract.Araise _ | Extract.Aacquire _
    | Extract.Arelease _ ->
      ()
  in
  go d.Extract.acts;
  List.rev !out

(* Direct effect sites of a kind within a def. *)
let direct_sites (d : Extract.def) ~kind =
  let out = ref [] in
  let rec go acts = List.iter go1 acts
  and go1 = function
    | Extract.Aalloc { prim; loc } when kind = `Alloc -> out := (prim, loc) :: !out
    | Extract.Araise { prim; loc } when kind = `Raise -> out := (prim, loc) :: !out
    | Extract.Awith { body; _ } -> go body
    | Extract.Abranch bs -> List.iter go bs
    | _ -> ()
  in
  go d.Extract.acts;
  List.rev !out

(* BFS from [entry]; returns reached defs with the call-site path from
   the entry (entry itself has the empty path). Deterministic: sorted
   frontier expansion, first (shortest, lexicographically-first) path
   wins. *)
let reachable_with_paths ?(cut = fun (_ : loc) -> false) g entry_fqn =
  let paths : (string, (string * loc) list) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace paths entry_fqn [];
  let frontier = ref [ entry_fqn ] in
  while !frontier <> [] do
    let next = ref [] in
    List.iter
      (fun fqn ->
        match Hashtbl.find_opt g.defs fqn with
        | None -> ()
        | Some d ->
          let base = Hashtbl.find paths fqn in
          List.iter
            (fun s ->
              if not (cut s.site_loc || Hashtbl.mem paths s.callee_fqn) then begin
                Hashtbl.replace paths s.callee_fqn (base @ [ (s.callee_fqn, s.site_loc) ]);
                next := s.callee_fqn :: !next
              end)
            (call_sites d g))
      (List.sort String.compare !frontier);
    frontier := !next
  done;
  paths
