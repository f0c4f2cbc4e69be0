open Ast
module Db = Phoebe_core.Db
module Table = Phoebe_core.Table
module Value = Phoebe_storage.Value
module Txnmgr = Phoebe_txn.Txnmgr

exception Error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type session = { sdb : Db.t; mutable open_txn : Txnmgr.txn option }

let session db = { sdb = db; open_txn = None }
let in_transaction s = s.open_txn <> None

type result = Rows of string list * Value.t array list | Affected of int | Done of string

type access_path = Full_scan | Index_probe of { index : string; prefix_len : int; ranged : bool }

(* ------------------------------------------------------------------ *)
(* Values and predicates *)

let value_of_literal = function
  | L_int v -> Value.Int v
  | L_float v -> Value.Float v
  | L_string v -> Value.Str v
  | L_bool v -> Value.Bool v
  | L_null -> Value.Null

let coerce_for_column schema col v =
  (* INT literals flow into FLOAT columns, as SQL users expect *)
  match (v, Value.Schema.column_type schema (Value.Schema.column_index schema col)) with
  | Value.Int i, Value.T_float -> Value.Float (float_of_int i)
  | v, _ -> v

let table_of s name =
  match Db.table s.sdb name with
  | t -> t
  | exception Not_found -> fail "no such table: %s" name

let col_index schema name =
  match Value.Schema.column_index schema name with
  | i -> i
  | exception Not_found -> fail "no such column: %s" name

let matches schema (row : Value.t array) (p : predicate) =
  let lhs = row.(col_index schema p.pcol) in
  let rhs = coerce_for_column schema p.pcol (value_of_literal p.value) in
  let c = Value.compare lhs rhs in
  match p.op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let matches_all schema row preds = List.for_all (matches schema row) preds

(* ------------------------------------------------------------------ *)
(* Planning: pick the index whose key prefix is fully bound by equality
   predicates; a following range predicate upgrades the probe. *)

let plan_for db ~table_name (where : predicate list) =
  match Db.table db table_name with
  | exception Not_found -> Full_scan
  | table ->
    let eq_cols = List.filter_map (fun p -> if p.op = Eq then Some p.pcol else None) where in
    let range_cols =
      List.filter_map (fun p -> if p.op <> Eq && p.op <> Ne then Some p.pcol else None) where
    in
    let score name =
      let cols = Table.index_cols table name in
      let rec prefix_len = function
        | c :: rest when List.mem c eq_cols -> 1 + prefix_len rest
        | c :: _ when List.mem c range_cols -> 0 (* range continues below *)
        | _ -> 0
      in
      let plen = prefix_len cols in
      let ranged = match List.nth_opt cols plen with Some c -> List.mem c range_cols | None -> false in
      (name, plen, ranged)
    in
    let candidates =
      List.map score (Table.index_names table)
      |> List.filter (fun (_, plen, ranged) -> plen > 0 || ranged)
    in
    let best =
      List.fold_left
        (fun acc (name, plen, ranged) ->
          match acc with
          | Some (_, bplen, branged) when (bplen, branged) >= (plen, ranged) -> acc
          | _ -> Some (name, plen, ranged))
        None candidates
    in
    (match best with
    | Some (index, prefix_len, ranged) when prefix_len > 0 -> Index_probe { index; prefix_len; ranged }
    | _ -> Full_scan)

let plan_of_select db (q : select) = plan_for db ~table_name:q.from_table q.where

(* Rows matching [where], via the chosen access path; every predicate is
   re-applied as a residual filter, so the path only bounds the probe. *)
let matching_rows s txn table (where : predicate list) ~limit_hint =
  let schema = Table.schema table in
  let acc = ref [] in
  let count = ref 0 in
  let consider rid row =
    if matches_all schema row where then begin
      (* scan/index_prefix rows are scratch: copy before retaining *)
      acc := (rid, Array.copy row) :: !acc;
      incr count
    end;
    match limit_hint with Some l -> !count < l | None -> true
  in
  (match plan_for s.sdb ~table_name:(Table.name table) where with
  | Index_probe { index; prefix_len; _ } ->
    let cols = Table.index_cols table index in
    let prefix_cols = List.filteri (fun i _ -> i < prefix_len) cols in
    let prefix =
      List.map
        (fun c ->
          match List.find_opt (fun p -> p.pcol = c && p.op = Eq) where with
          | Some p -> coerce_for_column schema c (value_of_literal p.value)
          | None -> fail "planner bound a missing predicate")
        prefix_cols
    in
    Table.index_prefix table txn ~index ~prefix (fun rid row -> consider rid row)
  | Full_scan ->
    (* early exit only when the caller may truncate arbitrarily *)
    let stop = ref false in
    Table.scan table txn (fun rid row -> if not !stop then stop := not (consider rid row)));
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Scalar expressions (UPDATE ... SET) *)

let rec eval_expr schema (row : Value.t array) = function
  | E_lit l -> value_of_literal l
  | E_col c -> row.(col_index schema c)
  | E_add (a, b) -> arith schema row a b ( + ) ( +. )
  | E_sub (a, b) -> arith schema row a b ( - ) ( -. )
  | E_mul (a, b) -> arith schema row a b ( * ) ( *. )

and arith schema row a b int_op float_op =
  match (eval_expr schema row a, eval_expr schema row b) with
  | Value.Int x, Value.Int y -> Value.Int (int_op x y)
  | Value.Float x, Value.Float y -> Value.Float (float_op x y)
  | Value.Int x, Value.Float y -> Value.Float (float_op (float_of_int x) y)
  | Value.Float x, Value.Int y -> Value.Float (float_op x (float_of_int y))
  | _ -> fail "arithmetic on non-numeric values"

(* ------------------------------------------------------------------ *)
(* SELECT *)

let project_headers schema items =
  List.concat_map
    (function
      | S_star ->
        Array.to_list (Array.map (fun c -> c.Value.Schema.name) (Value.Schema.columns schema))
      | S_col c -> [ c ]
      | S_agg Count_star -> [ "count(*)" ]
      | S_agg (Count c) -> [ Printf.sprintf "count(%s)" c ]
      | S_agg (Sum c) -> [ Printf.sprintf "sum(%s)" c ]
      | S_agg (Avg c) -> [ Printf.sprintf "avg(%s)" c ]
      | S_agg (Min c) -> [ Printf.sprintf "min(%s)" c ]
      | S_agg (Max c) -> [ Printf.sprintf "max(%s)" c ])
    items

let has_aggregate items = List.exists (function S_agg _ -> true | _ -> false) items

let float_of_num = function
  | Value.Int v -> float_of_int v
  | Value.Float v -> v
  | v -> fail "aggregate over non-numeric value %s" (Value.to_string v)

let aggregate schema items rows =
  let col c = col_index schema c in
  List.map
    (function
      | S_agg Count_star -> Value.Int (List.length rows)
      | S_agg (Count c) ->
        Value.Int (List.length (List.filter (fun r -> r.(col c) <> Value.Null) rows))
      | S_agg (Sum c) ->
        Value.Float (List.fold_left (fun acc r -> acc +. float_of_num r.(col c)) 0.0 rows)
      | S_agg (Avg c) ->
        let n = List.length rows in
        if n = 0 then Value.Null
        else
          Value.Float
            (List.fold_left (fun acc r -> acc +. float_of_num r.(col c)) 0.0 rows /. float_of_int n)
      | S_agg (Min c) ->
        List.fold_left
          (fun acc r -> if acc = Value.Null || Value.compare r.(col c) acc < 0 then r.(col c) else acc)
          Value.Null rows
      | S_agg (Max c) ->
        List.fold_left
          (fun acc r -> if acc = Value.Null || Value.compare r.(col c) acc > 0 then r.(col c) else acc)
          Value.Null rows
      | S_col c -> (
        (* only meaningful with GROUP BY: representative value *)
        match rows with [] -> Value.Null | r :: _ -> r.(col c))
      | S_star -> fail "cannot mix * with aggregates")
    items

let run_select s txn (q : select) =
  let table = table_of s q.from_table in
  let schema = Table.schema table in
  (* LIMIT can bound the probe only for plain selections *)
  let limit_hint =
    if q.order = None && q.group_by = None && not (has_aggregate q.items) then q.limit else None
  in
  let rows = matching_rows s txn table q.where ~limit_hint in
  let headers = project_headers schema q.items in
  if has_aggregate q.items || q.group_by <> None then begin
    let bare = List.map snd rows in
    match q.group_by with
    | None -> Rows (headers, [ Array.of_list (aggregate schema q.items bare) ])
    | Some gcol ->
      let gidx = col_index schema gcol in
      let groups = Hashtbl.create 16 in
      List.iter
        (fun r ->
          let k = r.(gidx) in
          Hashtbl.replace groups k (r :: (Option.value ~default:[] (Hashtbl.find_opt groups k))))
        bare;
      let result =
        Hashtbl.fold
          (fun _ group acc -> Array.of_list (aggregate schema q.items (List.rev group)) :: acc)
          groups []
      in
      let result =
        (* deterministic order: sort by the first column *)
        List.sort (fun a b -> Value.compare a.(0) b.(0)) result
      in
      Rows (headers, result)
  end
  else begin
    let rows =
      match q.order with
      | None -> rows
      | Some { ocol; descending } ->
        let oidx = col_index schema ocol in
        let cmp (_, a) (_, b) =
          let c = Value.compare a.(oidx) b.(oidx) in
          if descending then -c else c
        in
        List.stable_sort cmp rows
    in
    let rows = match q.limit with Some l -> List.filteri (fun i _ -> i < l) rows | None -> rows in
    let project (_, row) =
      Array.of_list
        (List.concat_map
           (function
             | S_star -> Array.to_list row
             | S_col c -> [ row.(col_index schema c) ]
             | S_agg _ -> assert false)
           q.items)
    in
    Rows (headers, List.map project rows)
  end

(* ------------------------------------------------------------------ *)
(* DML *)

let run_insert s txn ~tname ~columns ~rows =
  let table = table_of s tname in
  let schema = Table.schema table in
  let arity = Value.Schema.arity schema in
  let build lits =
    match columns with
    | None ->
      if List.length lits <> arity then fail "INSERT arity mismatch for %s" tname;
      Array.of_list
        (List.mapi
           (fun i l ->
             coerce_for_column schema (Value.Schema.columns schema).(i).Value.Schema.name
               (value_of_literal l))
           lits)
    | Some cols ->
      if List.length lits <> List.length cols then fail "INSERT arity mismatch for %s" tname;
      let row = Array.make arity Value.Null in
      List.iter2
        (fun c l -> row.(col_index schema c) <- coerce_for_column schema c (value_of_literal l))
        cols lits;
      row
  in
  let n = ref 0 in
  List.iter
    (fun lits ->
      ignore (Table.insert table txn (build lits));
      incr n)
    rows;
  Affected !n

let run_update s txn ~tname ~assignments ~where =
  let table = table_of s tname in
  let schema = Table.schema table in
  (* resolve the SET columns once, not per row *)
  let assignments = List.map (fun (c, e) -> (c, col_index schema c, e)) assignments in
  let targets = matching_rows s txn table where ~limit_hint:None in
  let applied = ref 0 in
  List.iter
    (fun (rid, _) ->
      ignore
        (Table.update table txn ~rid (fun current ->
             (* re-check under the tuple lock: the row may have changed
                since the probe (PostgreSQL re-evaluates the same way) *)
             if matches_all schema current where then begin
               incr applied;
               Array.of_list
                 (List.map
                    (fun (c, i, e) -> (i, coerce_for_column schema c (eval_expr schema current e)))
                    assignments)
             end
             else [||])))
    targets;
  Affected !applied

let run_delete s txn ~tname ~where =
  let table = table_of s tname in
  let targets = matching_rows s txn table where ~limit_hint:None in
  let n = ref 0 in
  List.iter (fun (rid, _) -> if Table.delete table txn ~rid then incr n) targets;
  Affected !n

(* ------------------------------------------------------------------ *)
(* DDL and transaction control *)

let core_type = function
  | T_int -> Value.T_int
  | T_float -> Value.T_float
  | T_text -> Value.T_str
  | T_bool -> Value.T_bool

let run_ddl s = function
  | Create_table { tname; columns } ->
    (match Db.table s.sdb tname with
    | _ -> fail "table %s already exists" tname
    | exception Not_found -> ());
    ignore
      (Db.create_table s.sdb ~name:tname ~schema:(List.map (fun (c, ty) -> (c, core_type ty)) columns));
    Done (Printf.sprintf "CREATE TABLE %s" tname)
  | Create_index { iname; on_table; cols; unique } ->
    let table = table_of s on_table in
    (try Db.create_index s.sdb table ~name:iname ~cols ~unique
     with Invalid_argument m -> fail "%s" m);
    Done (Printf.sprintf "CREATE INDEX %s" iname)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Entry points *)

let run_in_txn s txn = function
  | Select q -> run_select s txn q
  | Insert { tname; columns; rows } -> run_insert s txn ~tname ~columns ~rows
  | Update { tname; assignments; where } -> run_update s txn ~tname ~assignments ~where
  | Delete { tname; where } -> run_delete s txn ~tname ~where
  | _ -> assert false

let rollback_session s =
  match s.open_txn with
  | Some txn when txn.Txnmgr.state = Txnmgr.Active ->
    Db.abort_txn s.sdb txn;
    s.open_txn <- None
  | _ -> s.open_txn <- None

let exec_stmt s stmt =
  match stmt with
  | Begin ->
    if in_transaction s then fail "already in a transaction";
    s.open_txn <- Some (Db.begin_txn s.sdb);
    Done "BEGIN"
  | Commit -> (
    match s.open_txn with
    | None -> fail "no transaction in progress"
    | Some txn ->
      s.open_txn <- None;
      (try Txnmgr.commit (Db.txnmgr s.sdb) txn
       with Txnmgr.Abort (_, m) ->
         fail "commit failed: %s" m);
      Done "COMMIT")
  | Rollback -> (
    match s.open_txn with
    | None -> fail "no transaction in progress"
    | Some txn ->
      s.open_txn <- None;
      Db.abort_txn s.sdb txn;
      Done "ROLLBACK")
  | Show_tables ->
    Rows
      ( [ "table" ],
        List.map (fun t -> [| Value.Str (Table.name t) |]) (Db.tables s.sdb) )
  | Create_table _ | Create_index _ ->
    if in_transaction s then fail "DDL inside an explicit transaction is not supported";
    run_ddl s stmt
  | Select _ | Insert _ | Update _ | Delete _ -> (
    match s.open_txn with
    | Some txn -> (
      try run_in_txn s txn stmt
      with Txnmgr.Abort (_, m) ->
        rollback_session s;
        fail "transaction aborted: %s" m)
    | None -> Db.with_txn s.sdb (fun txn -> run_in_txn s txn stmt))

let exec s input =
  let stmt = try Parser.parse_one input with
    | Parser.Parse_error m | Lexer.Lex_error m -> fail "%s" m
  in
  try exec_stmt s stmt
  with
  | Error _ as e -> raise e
  | Txnmgr.Abort (_, m) ->
    rollback_session s;
    fail "transaction aborted: %s" m

let exec_script s input =
  let stmts = try Parser.parse input with
    | Parser.Parse_error m | Lexer.Lex_error m -> fail "%s" m
  in
  List.map (exec_stmt s) stmts

let explain s input =
  match try Parser.parse_one input with Parser.Parse_error m | Lexer.Lex_error m -> fail "%s" m with
  | Select q -> (
    match plan_of_select s.sdb q with
    | Full_scan -> Printf.sprintf "Seq scan on %s" q.from_table
    | Index_probe { index; prefix_len; ranged } ->
      Printf.sprintf "Index probe on %s using %s (prefix=%d%s)" q.from_table index prefix_len
        (if ranged then ", range" else ""))
  | _ -> fail "EXPLAIN supports SELECT only"
