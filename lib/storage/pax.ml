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
    (* a decoded cell is a boxed [Value.t], except a small int, which is
       a shared cell; a projected read (Table's [?cols]) decodes only the
       cells it needs *)
    match t.cols.(col) with
    | Ints a -> Value.of_int a.(slot)
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

(* Row ids are appended in increasing order and a leaf rarely skips one,
   so the slot [row_id - first] usually holds [row_id]; bisect only when
   it does not. *)
let find t ~row_id =
  if t.n = 0 then -1
  else
    let slot = row_id - t.row_ids.(0) in
    if slot >= 0 && slot < t.n && t.row_ids.(slot) = row_id then slot
    else bisect t.row_ids row_id 0 (t.n - 1)

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

let size_bytes t =
  let per_row =
    Array.fold_left
      (fun acc c -> acc + match c with Ints _ -> 8 | Floats _ -> 8 | Strs _ -> 8 | Bools _ -> 1)
      8 t.cols
  in
  (t.pcapacity * per_row) + t.str_bytes + 64

(* The page image. A header (capacity, count, page GSN, schema), then
   each slot's row id and delete mark, then the cells column-major,
   preserving the PAX layout on disk. Each cell is one [Value.encode]
   image: a tag byte ([\x00] null, [\x01] int, [\x02] float, [\x03]
   string, [\x04] bool), then the payload: a zigzag varint, eight
   little-endian bytes, a length-prefixed string or one byte.

   The codec runs once per written or faulted page, so it works column
   by column: each column's store is matched once, and every cell goes
   between its typed array and the bytes with no boxed [Value.t] in
   between. *)

(* One column's cells. A float is written as its bits straight from the
   float array, so it is never boxed. *)
let encode_column buf nulls store n =
  match store with
  | Ints a ->
    for slot = 0 to n - 1 do
      if bitmap_get nulls slot then Buffer.add_char buf '\x00'
      else begin
        Buffer.add_char buf '\x01';
        Varint.write_int buf a.(slot)
      end
    done
  | Floats a ->
    for slot = 0 to n - 1 do
      if bitmap_get nulls slot then Buffer.add_char buf '\x00'
      else begin
        Buffer.add_char buf '\x02';
        Buffer.add_int64_le buf (Int64.bits_of_float a.(slot))
      end
    done
  | Strs a ->
    for slot = 0 to n - 1 do
      if bitmap_get nulls slot then Buffer.add_char buf '\x00'
      else begin
        Buffer.add_char buf '\x03';
        Varint.write_string buf a.(slot)
      end
    done
  | Bools bm ->
    for slot = 0 to n - 1 do
      if bitmap_get nulls slot then Buffer.add_char buf '\x00'
      else begin
        Buffer.add_char buf '\x04';
        Buffer.add_char buf (if bitmap_get bm slot then '\x01' else '\x00')
      end
    done

(* The body buffer is module-level scratch so repeated encodes do not
   rebuild it. Single-domain kernel: no concurrent encode can interleave
   (fibers cannot suspend inside encode). *)
let encode_scratch = Buffer.create 4096

(* lint: hot-path *)
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
  for col = 0 to Array.length t.cols - 1 do
    encode_column buf t.nulls.(col) t.cols.(col) t.n
  done;
  Crc32.seal buf (* lint: allow hot-path-alloc — the sealed page image the store keeps *)

(* The decode side reads through one cursor per page, so no cell builds
   a [(value, offset)] pair. *)
type cursor = { src : Bytes.t; mutable pos : int }

let overrun () = failwith "Pax.decode: overrun"

let next_byte c =
  if c.pos >= Bytes.length c.src then overrun ();
  let v = Char.code (Bytes.unsafe_get c.src c.pos) in
  c.pos <- c.pos + 1;
  v

let rec uint_loop c acc shift =
  let b = next_byte c in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else uint_loop c acc (shift + 7)

let next_uint c = uint_loop c 0 0

(* The tag before one cell: [false] for a null (its bit is set here),
   [true] when a payload of the column's own [tag] follows. A cell of
   another type is rejected as [store_set] rejects it. *)
let cell_present c nulls slot ~tag =
  let got = next_byte c in
  if got = tag then true
  else if got = 0 then begin
    bitmap_set nulls slot true;
    false
  end
  else if got <= 4 then invalid_arg "Pax: value does not match column type"
  else Fmt.failwith "Pax.decode: bad tag %C" (Char.chr got)

let decode_column c t col =
  let nulls = t.nulls.(col) in
  match t.cols.(col) with
  | Ints a ->
    for slot = 0 to t.n - 1 do
      if cell_present c nulls slot ~tag:1 then begin
        let v = next_uint c in
        a.(slot) <- (v lsr 1) lxor -(v land 1) (* zigzag *)
      end
    done
  | Floats a ->
    for slot = 0 to t.n - 1 do
      if cell_present c nulls slot ~tag:2 then begin
        if c.pos + 8 > Bytes.length c.src then overrun ();
        a.(slot) <- Int64.float_of_bits (Bytes.get_int64_le c.src c.pos);
        c.pos <- c.pos + 8
      end
    done
  | Strs a ->
    for slot = 0 to t.n - 1 do
      if cell_present c nulls slot ~tag:3 then begin
        let len = next_uint c in
        if c.pos + len > Bytes.length c.src then overrun ();
        a.(slot) <- Bytes.sub_string c.src c.pos len;
        c.pos <- c.pos + len;
        t.str_bytes <- t.str_bytes + len
      end
    done
  | Bools bm ->
    for slot = 0 to t.n - 1 do
      if cell_present c nulls slot ~tag:4 then bitmap_set bm slot (next_byte c = 1)
    done

let decode b =
  let c = { src = b; pos = Crc32.unseal b } in
  let capacity = next_uint c in
  let n = next_uint c in
  let gsn = next_uint c in
  let schema, off = Value.Schema.read b c.pos in
  c.pos <- off;
  let t = create schema ~capacity in
  for slot = 0 to n - 1 do
    t.row_ids.(slot) <- next_uint c;
    if next_byte c = 1 then bitmap_set t.deleted slot true
  done;
  t.n <- n;
  t.gsn <- gsn;
  for col = 0 to Array.length t.cols - 1 do
    decode_column c t col
  done;
  t
