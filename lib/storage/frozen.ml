module Varint = Phoebe_util.Varint
module Crc32 = Phoebe_util.Crc32

(* Columns are compressed independently. Ints use delta+zigzag varints
   (row ids and monotone-ish attributes compress very well); strings use
   a dictionary when the column has few distinct values, otherwise plain
   length-prefixed storage; floats are stored raw; bools as bitmaps.
   Nulls ride in a per-column bitmap. *)

type compressed_col =
  | C_int_delta of Bytes.t
  | C_float_raw of Bytes.t
  | C_str_dict of string array * int array  (** dictionary, per-row codes *)
  | C_str_raw of Bytes.t
  | C_bool_bitmap of Bytes.t

type t = {
  fschema : Value.Schema.t;
  row_ids : int array;  (** sorted ascending *)
  deleted : Bytes.t;  (** mutable delete marks: the only writable state *)
  nulls : Bytes.t array;
  cols : compressed_col array;
  raw_bytes : int;
}

let bitmap_get bm i = Char.code (Bytes.get bm (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bitmap_set bm i v =
  let byte = Char.code (Bytes.get bm (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  Bytes.set bm (i lsr 3) (Char.chr (if v then byte lor mask else byte land lnot mask))

let compress_ints values =
  let buf = Buffer.create (Array.length values) in
  let prev = ref 0 in
  Array.iter
    (fun v ->
      Varint.write_int buf (v - !prev);
      prev := v)
    values;
  Buffer.to_bytes buf

let decompress_ints b n =
  let out = Array.make n 0 in
  let off = ref 0 and prev = ref 0 in
  for i = 0 to n - 1 do
    let d, o = Varint.read_int b !off in
    prev := !prev + d;
    out.(i) <- !prev;
    off := o
  done;
  out

let dict_threshold = 64

let compress_strs values =
  let distinct = Hashtbl.create 64 in
  Array.iter (fun s -> if not (Hashtbl.mem distinct s) then Hashtbl.add distinct s (Hashtbl.length distinct)) values;
  if Hashtbl.length distinct <= dict_threshold && Array.length values > Hashtbl.length distinct then begin
    let dict = Array.make (Hashtbl.length distinct) "" in
    Hashtbl.iter (fun s i -> dict.(i) <- s) distinct;
    C_str_dict (dict, Array.map (Hashtbl.find distinct) values)
  end
  else begin
    let buf = Buffer.create 256 in
    Array.iter (Varint.write_string buf) values;
    C_str_raw (Buffer.to_bytes buf)
  end

let freeze pages =
  match pages with
  | [] -> invalid_arg "Frozen.freeze: no pages"
  | first :: _ ->
    let schema = Pax.schema first in
    let rows = ref [] in
    List.iter (fun p -> Pax.iter_live p (fun rid row -> rows := (rid, row) :: !rows)) pages;
    let rows = Array.of_list (List.rev !rows) in
    let n = Array.length rows in
    if n = 0 then invalid_arg "Frozen.freeze: no live tuples";
    Array.iteri
      (fun i (rid, _) -> if i > 0 && rid <= fst rows.(i - 1) then invalid_arg "Frozen.freeze: row ids out of order")
      rows;
    let row_ids = Array.map fst rows in
    let ncols = Value.Schema.arity schema in
    let nulls = Array.init ncols (fun _ -> Bytes.make ((n + 7) / 8) '\x00') in
    let raw_bytes = ref 0 in
    let cols =
      Array.init ncols (fun col ->
          let vals = Array.map (fun (_, row) -> row.(col)) rows in
          Array.iteri (fun i v -> if v = Value.Null then bitmap_set nulls.(col) i true) vals;
          Array.iter (fun v -> raw_bytes := !raw_bytes + Value.size_bytes v) vals;
          match Value.Schema.column_type schema col with
          | Value.T_int ->
            C_int_delta (compress_ints (Array.map (function Value.Int v -> v | _ -> 0) vals))
          | Value.T_float ->
            let buf = Buffer.create (n * 8) in
            Array.iter (fun v -> Varint.write_float buf (match v with Value.Float f -> f | _ -> 0.0)) vals;
            C_float_raw (Buffer.to_bytes buf)
          | Value.T_str -> compress_strs (Array.map (function Value.Str s -> s | _ -> "") vals)
          | Value.T_bool ->
            let bm = Bytes.make ((n + 7) / 8) '\x00' in
            Array.iteri (fun i v -> if v = Value.Bool true then bitmap_set bm i true) vals;
            C_bool_bitmap bm)
    in
    {
      fschema = schema;
      row_ids;
      deleted = Bytes.make ((n + 7) / 8) '\x00';
      nulls;
      cols;
      raw_bytes = !raw_bytes;
    }

let first_row_id t = t.row_ids.(0)
let last_row_id t = t.row_ids.(Array.length t.row_ids - 1)
let count t = Array.length t.row_ids
let schema t = t.fschema

(* The index of [row_id] in the block, or -1: a module-level bisection,
   so a probe allocates nothing (the unique check probes frozen rows). *)
let rec bisect (row_ids : int array) row_id lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) / 2 in
    let v = row_ids.(mid) in
    if v = row_id then mid
    else if v < row_id then bisect row_ids row_id (mid + 1) hi
    else bisect row_ids row_id lo (mid - 1)

let find t row_id = bisect t.row_ids row_id 0 (Array.length t.row_ids - 1)

(* Decompressing a single column cell materialises the whole column for
   ints (delta chains); callers that scan use iter_live instead. *)
let cell t ~idx ~col =
  if bitmap_get t.nulls.(col) idx then Value.Null
  else
    match t.cols.(col) with
    | C_int_delta b -> Value.Int (decompress_ints b (count t)).(idx)
    | C_float_raw b ->
      let v, _ = Varint.read_float b (idx * 8) in
      Value.Float v
    | C_str_dict (dict, codes) -> Value.Str dict.(codes.(idx))
    | C_str_raw b ->
      let off = ref 0 in
      let result = ref "" in
      for i = 0 to idx do
        let s, o = Varint.read_string b !off in
        off := o;
        if i = idx then result := s
      done;
      Value.Str !result
    | C_bool_bitmap bm -> Value.Bool (bitmap_get bm idx)

let mark_deleted t ~row_id =
  match find t row_id with
  | -1 -> false
  | idx ->
    if bitmap_get t.deleted idx then false
    else begin
      bitmap_set t.deleted idx true;
      true
    end

let unmark_deleted t ~row_id =
  match find t row_id with
  | -1 -> false
  | idx ->
    if bitmap_get t.deleted idx then begin
      bitmap_set t.deleted idx false;
      true
    end
    else false

let is_deleted t ~row_id =
  match find t row_id with -1 -> false | idx -> bitmap_get t.deleted idx

(* The one row decode: into the prefix of a caller-owned buffer, so the
   execute path allocates no row (DESIGN.md §4h). *)
let get_raw_into t ~row_id dst =
  match find t row_id with
  | -1 -> false
  | idx ->
    let n = Value.Schema.arity t.fschema in
    if Array.length dst < n then invalid_arg "Frozen.get_raw_into: buffer too small";
    for col = 0 to n - 1 do
      dst.(col) <- cell t ~idx ~col
    done;
    true

let materialise_columns t =
  let n = count t in
  Array.map
    (function
      | C_int_delta b ->
        let ints = decompress_ints b n in
        fun i -> Value.Int ints.(i)
      | C_float_raw b ->
        fun i ->
          let v, _ = Varint.read_float b (i * 8) in
          Value.Float v
      | C_str_dict (dict, codes) -> fun i -> Value.Str dict.(codes.(i))
      | C_str_raw b ->
        let strs = Array.make n "" in
        let off = ref 0 in
        for i = 0 to n - 1 do
          let s, o = Varint.read_string b !off in
          strs.(i) <- s;
          off := o
        done;
        fun i -> Value.Str strs.(i)
      | C_bool_bitmap bm -> fun i -> Value.Bool (bitmap_get bm i))
    t.cols

let iter_live t f =
  let n = count t in
  let readers = materialise_columns t in
  let ncols = Value.Schema.arity t.fschema in
  for i = 0 to n - 1 do
    if not (bitmap_get t.deleted i) then
      f t.row_ids.(i)
        (Array.init ncols (fun col -> if bitmap_get t.nulls.(col) i then Value.Null else readers.(col) i))
  done

let iter_all t f =
  let n = count t in
  let readers = materialise_columns t in
  let ncols = Value.Schema.arity t.fschema in
  for i = 0 to n - 1 do
    f t.row_ids.(i) ~deleted:(bitmap_get t.deleted i)
      (Array.init ncols (fun col -> if bitmap_get t.nulls.(col) i then Value.Null else readers.(col) i))
  done

let fold_col t ~col ~init ~f =
  let n = count t in
  let reader =
    match t.cols.(col) with
    | C_int_delta b ->
      let ints = decompress_ints b n in
      fun i -> Value.Int ints.(i)
    | C_float_raw b ->
      fun i ->
        let v, _ = Varint.read_float b (i * 8) in
        Value.Float v
    | C_str_dict (dict, codes) -> fun i -> Value.Str dict.(codes.(i))
    | C_str_raw b ->
      let strs = Array.make n "" in
      let off = ref 0 in
      for i = 0 to n - 1 do
        let s, o = Varint.read_string b !off in
        strs.(i) <- s;
        off := o
      done;
      fun i -> Value.Str strs.(i)
    | C_bool_bitmap bm -> fun i -> Value.Bool (bitmap_get bm i)
  in
  let acc = ref init in
  for i = 0 to n - 1 do
    let v = if bitmap_get t.nulls.(col) i then Value.Null else reader i in
    acc := f !acc ~rid:t.row_ids.(i) ~deleted:(bitmap_get t.deleted i) v
  done;
  !acc

let live_count t =
  let n = ref 0 in
  for i = 0 to count t - 1 do
    if not (bitmap_get t.deleted i) then incr n
  done;
  !n

let compressed_bytes t =
  Array.fold_left
    (fun acc c ->
      acc
      +
      match c with
      | C_int_delta b | C_float_raw b | C_str_raw b | C_bool_bitmap b -> Bytes.length b
      | C_str_dict (dict, codes) ->
        Array.fold_left (fun a s -> a + String.length s + 1) 0 dict + (Array.length codes * 2))
    (Array.length t.row_ids * 2)
    t.cols

let uncompressed_bytes t = t.raw_bytes

(* Module-level scratch, same discipline as [Pax.encode]: block encodes
   run on the freeze/eviction path and never interleave (single domain,
   no suspension points inside encode). *)
let encode_scratch = Buffer.create 4096

let encode t =
  let buf = encode_scratch in
  Buffer.clear buf;
  Varint.write_uint buf (count t);
  Value.Schema.write buf t.fschema;
  Array.iter (fun rid -> Varint.write_uint buf rid) t.row_ids;
  Buffer.add_bytes buf t.deleted;
  Array.iter (fun bm -> Buffer.add_bytes buf bm) t.nulls;
  Varint.write_uint buf t.raw_bytes;
  Array.iter
    (fun c ->
      match c with
      | C_int_delta b ->
        Buffer.add_char buf 'd';
        Varint.write_uint buf (Bytes.length b);
        Buffer.add_bytes buf b
      | C_float_raw b ->
        Buffer.add_char buf 'f';
        Varint.write_uint buf (Bytes.length b);
        Buffer.add_bytes buf b
      | C_str_raw b ->
        Buffer.add_char buf 'r';
        Varint.write_uint buf (Bytes.length b);
        Buffer.add_bytes buf b
      | C_bool_bitmap b ->
        Buffer.add_char buf 'B';
        Varint.write_uint buf (Bytes.length b);
        Buffer.add_bytes buf b
      | C_str_dict (dict, codes) ->
        Buffer.add_char buf 'D';
        Varint.write_uint buf (Array.length dict);
        Array.iter (Varint.write_string buf) dict;
        Array.iter (fun c -> Varint.write_uint buf c) codes)
    t.cols;
  Crc32.seal buf

let decode b =
  let n, off = Varint.read_uint b (Crc32.unseal b) in
  let schema, off = Value.Schema.read b off in
  let ncols = Value.Schema.arity schema in
  let off = ref off in
  let row_ids = Array.make n 0 in
  for i = 0 to n - 1 do
    let rid, o = Varint.read_uint b !off in
    row_ids.(i) <- rid;
    off := o
  done;
  let bm_len = (n + 7) / 8 in
  let read_bm () =
    let bm = Bytes.sub b !off bm_len in
    off := !off + bm_len;
    bm
  in
  let deleted = read_bm () in
  let nulls = Array.init ncols (fun _ -> read_bm ()) in
  let raw_bytes, o = Varint.read_uint b !off in
  off := o;
  let read_sized () =
    let len, o = Varint.read_uint b !off in
    let data = Bytes.sub b o len in
    off := o + len;
    data
  in
  let cols =
    Array.init ncols (fun _ ->
        let tag = Bytes.get b !off in
        off := !off + 1;
        match tag with
        | 'd' -> C_int_delta (read_sized ())
        | 'f' -> C_float_raw (read_sized ())
        | 'r' -> C_str_raw (read_sized ())
        | 'B' -> C_bool_bitmap (read_sized ())
        | 'D' ->
          let dlen, o = Varint.read_uint b !off in
          off := o;
          let dict =
            Array.init dlen (fun _ ->
                let s, o = Varint.read_string b !off in
                off := o;
                s)
          in
          let codes =
            Array.init n (fun _ ->
                let c, o = Varint.read_uint b !off in
                off := o;
                c)
          in
          C_str_dict (dict, codes)
        | c -> Fmt.failwith "Frozen.decode: bad column tag %C" c)
  in
  { fschema = schema; row_ids; deleted; nulls; cols; raw_bytes }
