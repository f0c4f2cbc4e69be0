(* Determinism and idiom rules over one unit's typed tree (DESIGN.md
   section 4k). Unlike the interprocedural families these are local:
   each finding is one expression or one file.

     random               a value under Stdlib.Random (use Phoebe_util.Prng:
                          seeded, stream-splittable, deterministic)
     wall-clock           Unix.gettimeofday / Unix.time / Sys.time (virtual
                          time comes from the simulation engine only)
     poly-compare         Stdlib compare, =, <>, <, >, <=, >=, min or max
                          used at a type variable or at a type containing a
                          function (structural comparison follows the
                          representation and raises on closures); an
                          application with a constant constructor or
                          polymorphic-variant tag operand is exempt
     hashtbl-iter-mutate  a Hashtbl.iter closure that mutates the iterated
                          table (undefined traversal; collect then mutate)
     missing-mli          an implementation without an interface

   Paths are resolved by the type checker, so a local [compare] or a
   shadowing [( = )] is its own path and never matches. Types are read
   as instantiated at the use; abbreviations are not expanded. *)

open Typedtree

(* "Stdlib__Hashtbl.iter" and "Stdlib.Hashtbl.iter" both read as the
   latter. *)
let canonical p =
  let prefix = "Stdlib__" in
  String.split_on_char '.' (Path.name p)
  |> List.concat_map (fun seg ->
         if String.starts_with ~prefix seg then
           [ "Stdlib"; String.sub seg (String.length prefix) (String.length seg - String.length prefix) ]
         else [ seg ])
  |> String.concat "."

let one_of names n = List.exists (String.equal n) names
let wall_clock = [ "Unix.gettimeofday"; "Unix.time"; "Stdlib.Sys.time" ]

let poly_ops =
  List.map (( ^ ) "Stdlib.") [ "compare"; "="; "<>"; "<"; ">"; "<="; ">="; "min"; "max" ]

let hashtbl_mutators =
  List.map (( ^ ) "Stdlib.Hashtbl.") [ "remove"; "replace"; "add"; "reset"; "clear" ]

(* Depth-bounded: object and recursive polymorphic-variant types can be
   cyclic. *)
let rec has_arrow depth ty =
  depth < 16
  &&
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | _ -> Btype.fold_type_expr (fun found t -> found || has_arrow (depth + 1) t) false ty

(* The operand type of a comparison is its first parameter's type. *)
let polymorphic_operand ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> (
    match Types.get_desc a with Types.Tvar _ | Types.Tunivar _ -> true | _ -> has_arrow 0 a)
  | _ -> false

let constant_operand (_, a) =
  match a with
  | Some { exp_desc = Texp_construct (_, _, []) | Texp_variant (_, None); _ } -> true
  | _ -> false

(* The same table: one identifier, or the same field chain off one. *)
let rec same_table a b =
  match (a.exp_desc, b.exp_desc) with
  | Texp_ident (p, _, _), Texp_ident (q, _, _) -> Path.same p q
  | Texp_field (a, _, la), Texp_field (b, _, lb) ->
    String.equal la.Types.lbl_name lb.Types.lbl_name && same_table a b
  | _ -> false

let mutates body ~table =
  let hit = ref false in
  let expr it e =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, (_, Some target) :: _)
      when one_of hashtbl_mutators (canonical p) && same_table target table ->
      hit := true
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it body;
  !hit

let findings (u : Loader.unit_info) =
  let out = ref [] in
  let add rule (l : Location.t) msg =
    let p = l.Location.loc_start in
    let file = if p.Lexing.pos_fname = "" then u.Loader.source else p.Lexing.pos_fname in
    out := { Report.rule; file; line = p.Lexing.pos_lnum; extra = []; msg } :: !out
  in
  let ident ~exempt loc p ty =
    let n = canonical p in
    if String.starts_with ~prefix:"Stdlib.Random." n then
      add "random" loc (n ^ " is unseeded; use Phoebe_util.Prng (seeded, deterministic)")
    else if one_of wall_clock n then
      add "wall-clock" loc (n ^ " reads the host clock; virtual time comes from the engine")
    else if one_of poly_ops n && (not exempt) && polymorphic_operand ty then
      add "poly-compare" loc
        (n ^ " at a type variable or function type; use a typed comparator (Int.compare, ...)")
  in
  let expr it e =
    match e.exp_desc with
    | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fe), args) ->
      ident ~exempt:(List.exists constant_operand args) fe.exp_loc p fe.exp_type;
      (match (canonical p, args) with
      | "Stdlib.Hashtbl.iter", [ (_, Some f); (_, Some table) ] when mutates f ~table ->
        add "hashtbl-iter-mutate" e.exp_loc
          "Hashtbl.iter mutates the iterated table in its closure; collect then mutate"
      | _ -> ());
      List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args
    | Texp_ident (p, _, _) ->
      ident ~exempt:false e.exp_loc p e.exp_type;
      Tast_iterator.default_iterator.expr it e
    | _ -> Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it u.Loader.str;
  if not u.Loader.has_intf then
    out :=
      {
        Report.rule = "missing-mli";
        file = u.Loader.source;
        line = 1;
        extra = [];
        msg = "implementation without an interface; add an .mli or pragma a deliberate exposure";
      }
      :: !out;
  List.rev !out
