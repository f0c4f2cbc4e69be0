module Varint = Phoebe_util.Varint
module Crc32 = Phoebe_util.Crc32

type col_store =
  | Ints of int array
  | Floats of float array
  | Strs of string array
  | Bools of Bytes.t

type t = {
  pschema : Value.Schema.t;
  pcapacity : int;
  mutable n : int;
  row_ids : int array;
  cols : col_store array;
  nulls : Bytes.t array;  (** one bitmap per column *)
  deleted : Bytes.t;
  mutable str_bytes : int;  (** live string payload, for size accounting *)
  mutable gsn : int;  (** GSN of the last logged write to the page (§8) *)
}

let bitmap_get bm i = Char.code (Bytes.get bm (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bitmap_set bm i v =
  let byte = Char.code (Bytes.get bm (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  Bytes.set bm (i lsr 3) (Char.chr (if v then byte lor mask else byte land lnot mask))

let make_store ctype capacity =
  match ctype with
  | Value.T_int -> Ints (Array.make capacity 0)
  | Value.T_float -> Floats (Array.make capacity 0.0)
  | Value.T_str -> Strs (Array.make capacity "")
  | Value.T_bool -> Bools (Bytes.make ((capacity + 7) / 8) '\x00')

let create schema ~capacity =
  let ncols = Value.Schema.arity schema in
  {
    pschema = schema;
    pcapacity = capacity;
    n = 0;
    row_ids = Array.make capacity 0;
    cols = Array.init ncols (fun i -> make_store (Value.Schema.column_type schema i) capacity);
    nulls = Array.init ncols (fun _ -> Bytes.make ((capacity + 7) / 8) '\x00');
    deleted = Bytes.make ((capacity + 7) / 8) '\x00';
    str_bytes = 0;
    gsn = 0;
  }

let copy t =
  {
    pschema = t.pschema;
    pcapacity = t.pcapacity;
    n = t.n;
    row_ids = Array.copy t.row_ids;
    cols =
      Array.map
        (function
          | Ints a -> Ints (Array.copy a)
          | Floats a -> Floats (Array.copy a)
          | Strs a -> Strs (Array.copy a)
          | Bools b -> Bools (Bytes.copy b))
        t.cols;
    nulls = Array.map Bytes.copy t.nulls;
    deleted = Bytes.copy t.deleted;
    str_bytes = t.str_bytes;
    gsn = t.gsn;
  }

let schema t = t.pschema
let capacity t = t.pcapacity
let count t = t.n
let is_full t = t.n >= t.pcapacity
let is_empty t = t.n = 0
let gsn t = t.gsn
let set_gsn t g = t.gsn <- g

let live_count t =
  let live = ref 0 in
  for i = 0 to t.n - 1 do
    if not (bitmap_get t.deleted i) then incr live
  done;
  !live

let min_row_id t =
  if t.n = 0 then invalid_arg "Pax.min_row_id: empty page";
  t.row_ids.(0)

let max_row_id t =
  if t.n = 0 then invalid_arg "Pax.max_row_id: empty page";
  t.row_ids.(t.n - 1)

let store_set t ~slot ~col v =
  (match (t.cols.(col), v) with
  | _, Value.Null -> bitmap_set t.nulls.(col) slot true
  | Ints a, Value.Int x ->
    a.(slot) <- x;
    bitmap_set t.nulls.(col) slot false
  | Floats a, Value.Float x ->
    a.(slot) <- x;
    bitmap_set t.nulls.(col) slot false
  | Strs a, Value.Str x ->
    t.str_bytes <- t.str_bytes + String.length x - String.length a.(slot);
    a.(slot) <- x;
    bitmap_set t.nulls.(col) slot false
  | Bools bm, Value.Bool x ->
    bitmap_set bm slot x;
    bitmap_set t.nulls.(col) slot false
  | _ -> invalid_arg "Pax: value does not match column type");
  ()

let store_get t ~slot ~col =
  if bitmap_get t.nulls.(col) slot then Value.Null
  else
    (* a decoded cell is a boxed [Value.t]; a projected read (Table's
       [?cols]) decodes only the cells it needs *)
    match t.cols.(col) with
    | Ints a -> Value.Int a.(slot) (* lint: allow hot-path-alloc — the decoded cell *)
    | Floats a -> Value.Float a.(slot) (* lint: allow hot-path-alloc — the decoded cell *)
    | Strs a -> Value.Str a.(slot) (* lint: allow hot-path-alloc — the decoded cell *)
    | Bools bm -> Value.Bool (bitmap_get bm slot) (* lint: allow hot-path-alloc — the decoded cell *)

let append t ~row_id row =
  if is_full t then invalid_arg "Pax.append: page full";
  if not (Value.Schema.check_row t.pschema row) then invalid_arg "Pax.append: row/schema mismatch";
  if t.n > 0 && row_id <= t.row_ids.(t.n - 1) then
    invalid_arg "Pax.append: row ids must increase";
  let slot = t.n in
  t.row_ids.(slot) <- row_id;
  Array.iteri (fun col v -> store_set t ~slot ~col v) row;
  t.n <- t.n + 1;
  slot

let rec bisect (row_ids : int array) row_id lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) / 2 in
    let v = row_ids.(mid) in
    if v = row_id then mid
    else if v < row_id then bisect row_ids row_id (mid + 1) hi
    else bisect row_ids row_id lo (mid - 1)

let find t ~row_id = bisect t.row_ids row_id 0 (t.n - 1)

let get t ~slot =
  if slot < 0 || slot >= t.n then invalid_arg "Pax.get: bad slot";
  Array.init (Value.Schema.arity t.pschema) (fun col -> store_get t ~slot ~col)

let get_into t ~slot dst =
  if slot < 0 || slot >= t.n then invalid_arg "Pax.get_into: bad slot";
  let arity = Value.Schema.arity t.pschema in
  if Array.length dst < arity then invalid_arg "Pax.get_into: dst too small";
  for col = 0 to arity - 1 do
    dst.(col) <- store_get t ~slot ~col
  done

let get_cols_into t ~slot (cols : int array) dst =
  if slot < 0 || slot >= t.n then invalid_arg "Pax.get_cols_into: bad slot";
  for i = 0 to Array.length cols - 1 do
    let col = cols.(i) in
    dst.(col) <- store_get t ~slot ~col
  done

let get_col t ~slot ~col =
  if slot < 0 || slot >= t.n then invalid_arg "Pax.get_col: bad slot";
  store_get t ~slot ~col

let set_col t ~slot ~col v =
  if slot < 0 || slot >= t.n then invalid_arg "Pax.set_col: bad slot";
  store_set t ~slot ~col v

let row_id_at t ~slot =
  if slot < 0 || slot >= t.n then invalid_arg "Pax.row_id_at: bad slot";
  t.row_ids.(slot)

let mark_deleted t ~slot =
  if slot < 0 || slot >= t.n then invalid_arg "Pax.mark_deleted: bad slot";
  bitmap_set t.deleted slot true

let unmark_deleted t ~slot =
  if slot < 0 || slot >= t.n then invalid_arg "Pax.unmark_deleted: bad slot";
  bitmap_set t.deleted slot false

let is_deleted t ~slot =
  if slot < 0 || slot >= t.n then invalid_arg "Pax.is_deleted: bad slot";
  bitmap_get t.deleted slot

let iter_live t f =
  for slot = 0 to t.n - 1 do
    if not (bitmap_get t.deleted slot) then f t.row_ids.(slot) (get t ~slot)
  done

let iter_all t f =
  for slot = 0 to t.n - 1 do
    f t.row_ids.(slot) ~deleted:(bitmap_get t.deleted slot) (get t ~slot)
  done

let compact t =
  let fresh = create t.pschema ~capacity:t.pcapacity in
  iter_live t (fun row_id row -> ignore (append fresh ~row_id row));
  fresh

let size_bytes t =
  let per_row =
    Array.fold_left
      (fun acc c -> acc + match c with Ints _ -> 8 | Floats _ -> 8 | Strs _ -> 8 | Bools _ -> 1)
      8 t.cols
  in
  (t.pcapacity * per_row) + t.str_bytes + 64

(* [encode] runs on the cleaner/eviction path for every dirtied page;
   the body buffer is module-level scratch so repeated encodes do not
   rebuild it. Single-domain kernel: no concurrent encode can interleave
   (fibers cannot suspend inside encode). *)
let encode_scratch = Buffer.create 4096

let encode t =
  let buf = encode_scratch in
  Buffer.clear buf;
  Varint.write_uint buf t.pcapacity;
  Varint.write_uint buf t.n;
  Varint.write_uint buf t.gsn;
  Value.Schema.write buf t.pschema;
  for slot = 0 to t.n - 1 do
    Varint.write_uint buf t.row_ids.(slot);
    Buffer.add_char buf (if bitmap_get t.deleted slot then '\x01' else '\x00')
  done;
  (* column-major payload, preserving the PAX layout on disk *)
  for col = 0 to Value.Schema.arity t.pschema - 1 do
    for slot = 0 to t.n - 1 do
      Value.encode buf (store_get t ~slot ~col)
    done
  done;
  Crc32.seal buf

let decode b =
  let capacity, off = Varint.read_uint b (Crc32.unseal b) in
  let n, off = Varint.read_uint b off in
  let gsn, off = Varint.read_uint b off in
  let schema, off = Value.Schema.read b off in
  let ncols = Value.Schema.arity schema in
  let off = ref off in
  let t = create schema ~capacity in
  for slot = 0 to n - 1 do
    let rid, o = Varint.read_uint b !off in
    t.row_ids.(slot) <- rid;
    if Bytes.get b o = '\x01' then bitmap_set t.deleted slot true;
    off := o + 1
  done;
  t.n <- n;
  t.gsn <- gsn;
  for col = 0 to ncols - 1 do
    for slot = 0 to n - 1 do
      let v, o = Value.decode b !off in
      store_set t ~slot ~col v;
      off := o
    done
  done;
  t
