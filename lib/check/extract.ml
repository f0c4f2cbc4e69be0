(* Lower each unit's typed AST into a small effect IR per toplevel
   function: calls, latch acquisitions/releases (with a static latch
   class), parks, heap allocations and raising-primitive uses, with
   branch structure preserved (straight-line sequencing plus a union
   node for if/match arms).

   Latch classes are field-based: an acquisition of [t.append_latch]
   where the record type is declared in unit [Table_tree] gets the class
   ["table_tree.append_latch"]. An acquisition through an accessor
   ([Bufmgr.latch frame]) is classed by the accessor's returns-field
   summary (a function whose body is a single latch-typed field
   projection). This matches the class names the kernel registers with
   the runtime sanitizer ([Latch.set_class]), so the observed and static
   acquisition-order graphs share a vocabulary.

   Known imprecision (see DESIGN.md section 4k): closure bodies are
   treated as executed at their creation point (sound for reachability,
   over-approximate for ordering); functor applications and [include]
   are not traversed; latches reached through unrecognized expressions
   get no class (they still count as held for the park rule, but add no
   order edges). *)

module Trace = Phoebe_obs.Trace

type loc = { file : string; line : int }

type act =
  | Acall of { cands : string list; loc : loc }
      (** resolution candidates, most-qualified first; last entry is the
          normalized external name *)
  | Aacquire of { cls : string option; excl : bool; loc : loc }
  | Arelease of { cls : string option }
  | Awith of { cls : string option; excl : bool; body : act list; loc : loc }
  | Apark of { exempt : bool; loc : loc }
  | Aalloc of { prim : string; loc : loc }
  | Araise of { prim : string; loc : loc }
  | Abranch of act list list

type def = {
  fqn : string;  (** e.g. "Bufmgr.latch", "Scheduler.Waitq.wait" *)
  unit_name : string;
  source : string;
  def_loc : loc;
  is_fun : bool;
  acts : act list;
  returns_field : string option;  (** latch class, for accessor functions *)
}

(* ------------------------------------------------------------------ *)
(* Path normalization *)

let split_dots s = String.split_on_char '.' s

let short_seg seg =
  let n = String.length seg in
  let rec find i =
    if i + 1 >= n then None
    else if seg.[i] = '_' && seg.[i + 1] = '_' then Some (i + 2)
    else find (i + 1)
  in
  match find 0 with None -> seg | Some j -> String.sub seg j (n - j)

(* Normalize a typedtree path to short-unit form: resolve local module
   aliases, unmangle "Lib__Unit" segments, drop a leading library alias
   root ("Phoebe_storage.Latch.f" -> "Latch.f"). *)
let normalize ~lib_roots ~aliases name =
  let segs = split_dots name in
  let segs =
    match segs with
    | head :: tl -> (
      match Hashtbl.find_opt aliases head with
      | Some target -> split_dots target @ tl
      | None -> segs)
    | [] -> segs
  in
  let segs = List.map short_seg segs in
  let segs =
    match segs with
    | head :: (_ :: _ as tl) when List.exists (String.equal head) lib_roots -> tl
    (* "Stdlib.Hashtbl.find" -> "Hashtbl.find"; "Stdlib.ref" keeps its
       prefix (dropping it would orphan single-segment stdlib prims) *)
    | "Stdlib" :: (_ :: _ :: _ as tl) -> tl
    | _ -> segs
  in
  String.concat "." segs

(* ------------------------------------------------------------------ *)
(* Primitive tables *)

let latch_special = function
  | "Latch.acquire_exclusive" -> `Acquire true
  | "Latch.acquire_shared" -> `Acquire false
  | "Latch.release_exclusive" | "Latch.release_shared" -> `Release
  | "Latch.with_exclusive" -> `With true
  | "Latch.with_shared" -> `With false
  | "Latch.optimistic_read" | "Latch.optimistic_read_with" -> `Optimistic
  | "Scheduler.park" -> `Park
  | _ -> `No

(* Heap-allocating primitives visible by name. Closures, records,
   tuples, arrays and non-constant constructors are caught structurally
   in the walker. *)
let alloc_prims =
  [
    "Buffer.create"; "Buffer.contents"; "Buffer.to_bytes"; "Buffer.sub"; "Bytes.create";
    "Bytes.make"; "Bytes.sub"; "Bytes.sub_string"; "Bytes.copy"; "Bytes.to_string";
    "Bytes.of_string"; "Bytes.extend"; "String.make"; "String.sub"; "String.concat";
    "String.init"; "String.split_on_char"; "Array.make"; "Array.init"; "Array.append";
    "Array.sub"; "Array.of_list"; "Array.to_list"; "Array.copy"; "List.map"; "List.mapi";
    "List.rev_map"; "List.append"; "List.concat"; "List.concat_map"; "List.filter";
    "List.init"; "List.rev"; "List.sort"; "Printf.sprintf"; "Format.asprintf";
    "Hashtbl.create"; "Queue.create"; "Stdlib.^"; "Stdlib.@"; "Stdlib.ref";
  ]

(* Partial stdlib lookups whose Not_found/Invalid_argument would unwind
   WAL replay; recovery code uses the _opt variants. *)
let raising_prims = [ "Hashtbl.find"; "List.hd"; "List.tl"; "Option.get"; "List.assoc"; "List.find" ]

let is_alloc_prim n = List.exists (String.equal n) alloc_prims
let is_raising_prim n = List.exists (String.equal n) raising_prims

(* ------------------------------------------------------------------ *)
(* Typedtree walking *)

open Typedtree

type ctx = {
  cunit : string;  (** short unit name *)
  csource : string;
  lib_roots : string list;
  aliases : (string, string) Hashtbl.t;  (** local module alias -> normalized target *)
  prefixes : string list;  (** innermost-first module prefixes, e.g. ["Scheduler.Waitq"; "Scheduler"] *)
  mutable defs : def list;  (** reverse order *)
}

let loc_of ctx (l : Location.t) =
  let p = l.Location.loc_start in
  let file = if p.Lexing.pos_fname = "" then ctx.csource else p.Lexing.pos_fname in
  { file; line = p.Lexing.pos_lnum }

(* Unit that declares a type constructor: "Table_tree.t" -> table_tree;
   a local path ("t") is the current unit. *)
let unit_of_type_path ctx path =
  match split_dots (normalize ~lib_roots:ctx.lib_roots ~aliases:ctx.aliases (Path.name path)) with
  | [ _ ] -> String.lowercase_ascii ctx.cunit
  | head :: _ :: _ -> String.lowercase_ascii head
  | [] -> String.lowercase_ascii ctx.cunit

let class_of_label ctx (lbl : Types.label_description) =
  match Types.get_desc lbl.Types.lbl_res with
  | Types.Tconstr (p, _, _) -> Some (unit_of_type_path ctx p ^ "." ^ lbl.Types.lbl_name)
  | _ -> None

let is_latch_type ctx (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
    String.equal (normalize ~lib_roots:ctx.lib_roots ~aliases:ctx.aliases (Path.name p)) "Latch.t"
  | _ -> false

(* The [Trace.phase] a park's [~phase] constructor names: constructors
   are matched through [Trace.phase_label], their lower-case name. A
   phase the analyzer cannot resolve is not exempt. *)
let park_phase ctx (cd : Types.constructor_description) =
  match Types.get_desc cd.Types.cstr_res with
  | Types.Tconstr (p, _, _)
    when String.equal (normalize ~lib_roots:ctx.lib_roots ~aliases:ctx.aliases (Path.name p)) "Trace.phase"
    ->
    let label = String.lowercase_ascii cd.Types.cstr_name in
    List.find_opt (fun ph -> String.equal (Trace.phase_label ph) label) Trace.all_phases
  | _ -> None

let ident_name e =
  match e.exp_desc with Texp_ident (p, _, _) -> Some (Path.name p) | _ -> None

(* Resolution candidates for a referenced value: each enclosing module
   prefix applied to the normalized name, then the name itself. *)
let candidates ctx name =
  let n = normalize ~lib_roots:ctx.lib_roots ~aliases:ctx.aliases name in
  if String.contains n '.' then [ n ]
  else List.map (fun p -> p ^ "." ^ n) (ctx.prefixes @ [ ctx.cunit ]) @ [ n ]

(* A structured constant ([Some Exclusive], [Some 0], [None]): the
   compiler emits it once, statically, so building one allocates
   nothing. *)
let rec is_static e =
  match e.exp_desc with
  | Texp_constant _ -> true
  | Texp_construct (_, _, es) -> List.for_all is_static es
  | _ -> false

(* A match case that takes a tuple scrutinee apart without binding it
   whole (no variable or alias pattern at the top). *)
let rec destructures_tuple : type k. k general_pattern -> bool =
 fun p ->
  match p.pat_desc with
  | Tpat_value v -> destructures_tuple (v :> value general_pattern)
  | Tpat_exception _ | Tpat_tuple _ | Tpat_any -> true
  | Tpat_or (a, b, _) -> destructures_tuple a && destructures_tuple b
  | _ -> false

let rec walk ctx e : act list =
  let loc = loc_of ctx e.exp_loc in
  match e.exp_desc with
  | Texp_ident _ | Texp_constant _ | Texp_instvar _ | Texp_unreachable
  | Texp_extension_constructor _ ->
    []
  | Texp_let (_, vbs, body) -> List.concat_map (fun vb -> walk ctx vb.vb_expr) vbs @ walk ctx body
  | Texp_function { cases; _ } ->
    (* a closure: allocates at creation; body over-approximated as
       executed here *)
    Aalloc { prim = "closure"; loc } :: walk_cases ctx cases
  | Texp_apply (fe, args) -> walk_apply ctx loc fe args
  | Texp_match ({ exp_desc = Texp_tuple es; _ }, cases, _)
    when List.for_all (fun c -> destructures_tuple c.c_lhs) cases ->
    (* [match (a, b) with (x, y) -> ...]: the compiler matches the
       components in place and never builds the pair *)
    List.concat_map (walk ctx) es @ [ Abranch (List.map (walk_case ctx) cases) ]
  | Texp_match (scrut, cases, _) -> walk ctx scrut @ [ Abranch (List.map (walk_case ctx) cases) ]
  | Texp_try (body, cases) -> walk ctx body @ [ Abranch ([] :: List.map (walk_case ctx) cases) ]
  | Texp_tuple es -> (Aalloc { prim = "tuple"; loc } :: List.concat_map (walk ctx) es)
  | Texp_construct (_, cd, es) ->
    let alloc =
      if List.for_all is_static es then [] else [ Aalloc { prim = "constructor " ^ cd.Types.cstr_name; loc } ]
    in
    alloc @ List.concat_map (walk ctx) es
  | Texp_variant (_, eo) -> (
    match eo with None -> [] | Some e -> Aalloc { prim = "variant"; loc } :: walk ctx e)
  | Texp_record { fields; extended_expression; _ } ->
    let inits =
      Array.to_list fields
      |> List.concat_map (fun (_, rld) ->
             match rld with Kept _ -> [] | Overridden (_, e) -> walk ctx e)
    in
    let ext = match extended_expression with None -> [] | Some e -> walk ctx e in
    (Aalloc { prim = "record"; loc } :: ext) @ inits
  | Texp_field (e, _, _) -> walk ctx e
  | Texp_setfield (a, _, _, b) -> walk ctx a @ walk ctx b
  | Texp_array es -> Aalloc { prim = "array"; loc } :: List.concat_map (walk ctx) es
  | Texp_ifthenelse (c, t, eo) ->
    walk ctx c
    @ [ Abranch [ walk ctx t; (match eo with None -> [] | Some e -> walk ctx e) ] ]
  | Texp_sequence (a, b) -> walk ctx a @ walk ctx b
  | Texp_while (c, body) -> walk ctx c @ walk ctx body
  | Texp_for (_, _, lo, hi, _, body) -> walk ctx lo @ walk ctx hi @ walk ctx body
  | Texp_send (e, _) -> walk ctx e
  | Texp_new _ | Texp_object _ | Texp_override _ | Texp_setinstvar _ -> []
  | Texp_letmodule (_, _, _, me, body) -> walk_modexpr_inline ctx me @ walk ctx body
  | Texp_letexception (_, body) -> walk ctx body
  | Texp_assert (e, _) -> walk ctx e
  | Texp_lazy e -> Aalloc { prim = "closure"; loc } :: walk ctx e
  | Texp_pack me -> walk_modexpr_inline ctx me
  | Texp_letop { let_; ands; body; _ } ->
    walk ctx let_.bop_exp
    @ List.concat_map (fun b -> walk ctx b.bop_exp) ands
    @ walk_case ctx body
  | Texp_open (_, e) -> walk ctx e

and walk_case : 'k. ctx -> 'k case -> act list =
 fun ctx c ->
  let guard = match c.c_guard with None -> [] | Some g -> walk ctx g in
  guard @ walk ctx c.c_rhs

and walk_cases : 'k. ctx -> 'k case list -> act list =
 fun ctx cases -> List.concat_map (walk_case ctx) cases

(* module expressions inlined at a let-module / pack site: only literal
   structures are traversed (their bindings' effects happen here) *)
and walk_modexpr_inline ctx me =
  match me.mod_desc with
  | Tmod_structure s ->
    List.concat_map
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) -> List.concat_map (fun vb -> walk ctx vb.vb_expr) vbs
        | Tstr_eval (e, _) -> walk ctx e
        | _ -> [])
      s.str_items
  | Tmod_constraint (me, _, _, _) -> walk_modexpr_inline ctx me
  | _ -> []

(* The class of a latch-valued argument expression. *)
and latch_class ctx e =
  match e.exp_desc with
  | Texp_field (_, _, lbl) -> class_of_label ctx lbl
  | Texp_apply (fe, _) -> (
    match ident_name fe with
    | None -> None
    | Some n -> Some ("\x00accessor:" ^ String.concat "|" (candidates ctx n)))
    (* resolved to the accessor's returns-field summary later *)
  | _ -> None

and walk_apply ctx loc fe args =
  let arg_exprs = List.filter_map (fun (_, a) -> a) args in
  let name = match ident_name fe with Some n -> n | None -> "" in
  let norm =
    if name = "" then "" else normalize ~lib_roots:ctx.lib_roots ~aliases:ctx.aliases name
  in
  match latch_special norm with
  | `Acquire excl -> (
    match arg_exprs with
    | latch :: rest ->
      List.concat_map (walk ctx) rest
      @ walk_subexpr ctx latch
      @ [ Aacquire { cls = latch_class ctx latch; excl; loc } ]
    | [] -> [])
  | `Release -> (
    match arg_exprs with
    | latch :: _ -> walk_subexpr ctx latch @ [ Arelease { cls = latch_class ctx latch } ]
    | [] -> [])
  | `With excl -> (
    match arg_exprs with
    | [ latch; body ] ->
      let body_acts = body_of_funarg ctx body in
      walk_subexpr ctx latch
      @ [
          Aalloc { prim = "closure"; loc };
          Awith { cls = latch_class ctx latch; excl; body = body_acts; loc };
        ]
    | _ -> List.concat_map (walk ctx) arg_exprs)
  | `Optimistic ->
    (* no latch held; the read closure just runs *)
    List.concat_map (walk_funarg_body_or_expr ctx) arg_exprs
  | `Park ->
    let exempt =
      List.exists
        (fun (lbl, a) ->
          match (lbl, a) with
          | Asttypes.Labelled "phase", Some { exp_desc = Texp_construct (_, cd, _); _ } -> (
            match park_phase ctx cd with Some p -> Trace.latch_exempt p | None -> false)
          | _ -> false)
        args
    in
    List.concat_map (walk_funarg_body_or_expr ctx) arg_exprs @ [ Apark { exempt; loc } ]
  | `No ->
    let fn_acts = match ident_name fe with Some _ -> [] | None -> walk ctx fe in
    let arg_acts = List.concat_map (walk_funarg_or_callee ctx) arg_exprs in
    let call =
      if name = "" then []
      else if is_alloc_prim norm then [ Aalloc { prim = norm; loc } ]
      else if is_raising_prim norm then [ Araise { prim = norm; loc } ]
      else [ Acall { cands = candidates ctx name; loc } ]
    in
    fn_acts @ arg_acts @ call

(* walk an argument that is itself a latch expression (e.g. [Bufmgr.latch
   frame] — the accessor call's own sub-effects) *)
and walk_subexpr ctx e = match e.exp_desc with Texp_ident _ -> [] | _ -> walk ctx e

(* the [fun () -> ...] body of a higher-order special form; a named
   function argument becomes a call *)
and body_of_funarg ctx e =
  match e.exp_desc with
  | Texp_function { cases; _ } -> walk_cases ctx cases
  | Texp_ident (p, _, _) -> [ Acall { cands = candidates ctx (Path.name p); loc = loc_of ctx e.exp_loc } ]
  | _ -> walk ctx e

(* a generic argument: closures are inlined; a bare function ident passed
   as a callback is conservatively treated as called here *)
and walk_funarg_or_callee ctx e =
  match e.exp_desc with
  | Texp_ident (p, _, _) when is_arrow e.exp_type ->
    [ Acall { cands = candidates ctx (Path.name p); loc = loc_of ctx e.exp_loc } ]
  | _ -> walk ctx e

and walk_funarg_body_or_expr ctx e = body_of_funarg ctx e

and is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Structure -> defs *)

(* Strip curried parameter layers off a definition body without
   charging a closure allocation per layer (a fully-applied call of
   [let f x y = ...] allocates nothing). Returns the innermost body (if
   single-case) plus the parameter depth; a multi-case or guarded last
   layer is a parameter match and contributes its cases directly. *)
let rec collect_fun_body ctx e depth =
  match e.exp_desc with
  | Texp_function
      {
        arg_label = Asttypes.Optional _;
        cases =
          [
            {
              c_lhs = { pat_desc = Tpat_var (opt, _); _ };
              c_guard = None;
              c_rhs = { exp_desc = Texp_let (Asttypes.Nonrecursive, [ default ], rest); _ };
            };
          ];
        _;
      }
    when String.equal (Ident.name opt) "*opt*" ->
    (* [?(x = d)]: the compiler binds the default and carries on with
       the next parameter inside the same function, so the layer after
       the [let] is no closure either *)
    let body, depth, acts = collect_fun_body ctx rest (depth + 1) in
    (body, depth, walk ctx default.vb_expr @ acts)
  | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
    collect_fun_body ctx c_rhs (depth + 1)
  | Texp_function { cases; _ } -> (None, depth + 1, walk_cases ctx cases)
  | _ -> (Some e, depth, walk ctx e)

let returns_field_of ctx body n_params =
  if n_params = 0 then None
  else
    match body with
    | Some { exp_desc = Texp_field (_, _, lbl); _ } when is_latch_type ctx lbl.Types.lbl_arg ->
      class_of_label ctx lbl
    | _ -> None

let prefix_fqn ctx name =
  match ctx.prefixes with [] -> ctx.cunit ^ "." ^ name | p :: _ -> p ^ "." ^ name

let rec extract_structure ctx (s : structure) =
  List.iter (extract_item ctx) s.str_items

and extract_item ctx item =
  match item.str_desc with
  | Tstr_value (_, vbs) ->
    List.iter
      (fun vb ->
        match vb.vb_pat.pat_desc with
        | Tpat_var (_, name) ->
          let body, n_params, acts = collect_fun_body ctx vb.vb_expr 0 in
          let is_fun = n_params > 0 in
          let returns_field = returns_field_of ctx body n_params in
          ctx.defs <-
            {
              fqn = prefix_fqn ctx name.Asttypes.txt;
              unit_name = ctx.cunit;
              source = ctx.csource;
              def_loc = loc_of ctx vb.vb_pat.pat_loc;
              is_fun;
              acts;
              returns_field;
            }
            :: ctx.defs
        | _ -> ())
      vbs
  | Tstr_module mb -> extract_module ctx mb
  | Tstr_recmodule mbs -> List.iter (extract_module ctx) mbs
  | Tstr_eval _ | Tstr_primitive _ | Tstr_type _ | Tstr_typext _ | Tstr_exception _
  | Tstr_modtype _ | Tstr_open _ | Tstr_class _ | Tstr_class_type _ | Tstr_include _
  | Tstr_attribute _ ->
    ()

and extract_module ctx mb =
  match mb.mb_name.Asttypes.txt with
  | None -> ()
  | Some name -> (
    let rec go me =
      match me.mod_desc with
      | Tmod_structure s ->
        let inner =
          {
            ctx with
            prefixes = (prefix_fqn ctx name :: ctx.prefixes);
          }
        in
        extract_structure inner s;
        ctx.defs <- inner.defs
      | Tmod_constraint (me, _, _, _) -> go me
      | Tmod_ident (p, _) ->
        (* local module alias: record for path normalization *)
        Hashtbl.replace ctx.aliases name
          (normalize ~lib_roots:ctx.lib_roots ~aliases:ctx.aliases (Path.name p))
      | Tmod_functor _ | Tmod_apply _ | Tmod_apply_unit _ | Tmod_unpack _ -> ()
    in
    go mb.mb_expr)

let defs_of_unit ~lib_roots (u : Loader.unit_info) =
  let ctx =
    {
      cunit = u.Loader.unit_name;
      csource = u.Loader.source;
      lib_roots;
      aliases = Hashtbl.create 16;
      prefixes = [];
      defs = [];
    }
  in
  extract_structure ctx u.Loader.str;
  List.rev ctx.defs
