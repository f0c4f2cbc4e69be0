module Varint = Phoebe_util.Varint

type t = Null | Int of int | Float of float | Str of string | Bool of bool

type col_type = T_int | T_float | T_str | T_bool

let type_of = function
  | Null -> None
  | Int _ -> Some T_int
  | Float _ -> Some T_float
  | Str _ -> Some T_str
  | Bool _ -> Some T_bool

let rank = function Null -> 0 | Int _ -> 1 | Float _ -> 2 | Str _ -> 3 | Bool _ -> 4

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Shortest decimal form that round-trips exactly: "%.15g" loses bits on
   roughly one double in ten thousand (e.g. 0.1 +. 0.2), so fall back to
   "%.17g" — always exact — when re-parsing disagrees. *)
let float_to_string v =
  if Float.is_integer v && Float.abs v < 1e16 then Printf.sprintf "%.1f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let to_string = function
  | Null -> "NULL"
  | Int v -> string_of_int v
  | Float v -> float_to_string v
  | Str v -> v
  | Bool v -> string_of_bool v

let pp fmt v = Format.pp_print_string fmt (to_string v)

let size_bytes = function
  | Null -> 1
  | Int _ -> 8
  | Float _ -> 8
  | Str s -> String.length s + 2
  | Bool _ -> 1

let encode buf = function
  | Null -> Buffer.add_char buf '\x00'
  | Int v ->
    Buffer.add_char buf '\x01';
    Varint.write_int buf v
  | Float v ->
    Buffer.add_char buf '\x02';
    Varint.write_float buf v
  | Str v ->
    Buffer.add_char buf '\x03';
    Varint.write_string buf v
  | Bool v ->
    Buffer.add_char buf '\x04';
    Buffer.add_char buf (if v then '\x01' else '\x00')

let decode b off =
  let tag = Bytes.get b off in
  let off = off + 1 in
  match tag with
  | '\x00' -> (Null, off)
  | '\x01' ->
    let v, off = Varint.read_int b off in
    (Int v, off)
  | '\x02' ->
    let v, off = Varint.read_float b off in
    (Float v, off)
  | '\x03' ->
    let v, off = Varint.read_string b off in
    (Str v, off)
  | '\x04' -> (Bool (Bytes.get b off = '\x01'), off + 1)
  | c -> Fmt.failwith "Value.decode: bad tag %C" c

(* Memcomparable encoding: a type-rank byte, then a representation whose
   bytewise order matches value order. Ints are biased to unsigned
   big-endian; floats get the standard sign-flip trick; strings are
   escaped with 0x00->0x00 0xFF so that the 0x00 0x00 terminator sorts
   shorter strings first.

   Runs on every index probe, so it allocates nothing: each number is
   one [Buffer.add_int64_be] of an expression the compiler keeps
   unboxed, and the string escape is a module-level loop, not a
   closure. *)
let rec add_escaped buf s i =
  if i < String.length s then begin
    let c = String.unsafe_get s i in
    Buffer.add_char buf c;
    if Char.equal c '\x00' then Buffer.add_char buf '\xff';
    add_escaped buf s (i + 1)
  end

(* lint: hot-path *)
let encode_key buf v =
  Buffer.add_char buf (Char.unsafe_chr (rank v));
  match v with
  | Null -> ()
  | Int x -> Buffer.add_int64_be buf (Int64.add (Int64.of_int x) Int64.min_int)
  | Float f ->
    let bits = Int64.bits_of_float f in
    Buffer.add_int64_be buf
      (if Int64.compare bits 0L >= 0 then Int64.logxor bits Int64.min_int else Int64.lognot bits)
  | Str s ->
    add_escaped buf s 0;
    Buffer.add_string buf "\x00\x00"
  | Bool b -> Buffer.add_char buf (if b then '\x01' else '\x00')

module Schema = struct
  type value = t

  type column = { name : string; ctype : col_type }

  type t = { cols : column array; by_name : (string, int) Hashtbl.t }

  let make specs =
    let cols = Array.of_list (List.map (fun (name, ctype) -> { name; ctype }) specs) in
    let by_name = Hashtbl.create (Array.length cols) in
    Array.iteri (fun i c -> Hashtbl.replace by_name c.name i) cols;
    { cols; by_name }

  let columns t = t.cols
  let arity t = Array.length t.cols

  let column_index t name =
    match Hashtbl.find_opt t.by_name name with Some i -> i | None -> raise Not_found

  let column_type t i = t.cols.(i).ctype

  (* a module-level loop rather than [Array.for_all2]: every insert
     checks its row *)
  let rec cells_match (row : value array) cols i =
    i >= Array.length row
    || (match type_of row.(i) with None -> true | Some ty -> ty = cols.(i).ctype)
       && cells_match row cols (i + 1)

  let check_row t row = Array.length row = Array.length t.cols && cells_match row t.cols 0

  (* a loop, not [Array.iter]: every page image writes its schema *)
  let write buf t =
    Varint.write_uint buf (Array.length t.cols);
    for i = 0 to Array.length t.cols - 1 do
      let c = t.cols.(i) in
      Varint.write_string buf c.name;
      Buffer.add_char buf
        (match c.ctype with T_int -> 'i' | T_float -> 'f' | T_str -> 's' | T_bool -> 'b')
    done

  let read b off =
    let n, off = Varint.read_uint b off in
    let off = ref off in
    let specs =
      List.init n (fun _ ->
          let name, o = Varint.read_string b !off in
          let ctype =
            match Bytes.get b o with
            | 'i' -> T_int
            | 'f' -> T_float
            | 's' -> T_str
            | 'b' -> T_bool
            | c -> Fmt.failwith "Value.Schema.read: bad column type %C" c
          in
          off := o + 1;
          (name, ctype))
    in
    (make specs, !off)
end
