(* An encoded index key (DESIGN.md section 4h): the first [len] bytes of
   [b]. Only [grow] replaces [b], and every function that raises [len]
   reserves the room first, so [len <= Bytes.length b] always holds and
   the loads below are unchecked. *)
type t = { mutable b : Bytes.t; mutable len : int }

let create () = { b = Bytes.create 64; len = 0 }
let clear k = k.len <- 0
let length k = k.len
let bytes k = k.b

(* The one growth routine: room for [need] bytes, at least doubling. *)
let grow k need =
  (* lint: allow hot-path-alloc — a key longer than any this buffer held, off steady state *)
  let b = Bytes.create (max need (2 * Bytes.length k.b)) in
  Bytes.blit k.b 0 b 0 k.len;
  k.b <- b

let[@inline] reserve k n = if k.len + n > Bytes.length k.b then grow k (k.len + n)

let add_string k s =
  let n = String.length s in
  reserve k n;
  Bytes.blit_string s 0 k.b k.len n;
  k.len <- k.len + n

let set_concat k s src off n =
  let m = String.length s in
  k.len <- 0;
  reserve k (m + n);
  Bytes.blit_string s 0 k.b 0 m;
  Bytes.blit src off k.b m n;
  k.len <- m + n

let[@inline] add_byte k c =
  Bytes.unsafe_set k.b k.len c;
  k.len <- k.len + 1

(* Memcomparable encoding: a type-rank byte, then a representation whose
   bytewise order matches value order. Ints are biased to unsigned
   big-endian; floats get the standard sign-flip trick; strings are
   escaped with 0x00->0x00 0xFF so that the 0x00 0x00 terminator sorts
   shorter strings first.

   Runs on every index probe, so it allocates nothing: each number is
   one [Bytes.set_int64_be] of an expression the compiler keeps unboxed,
   and the string escape is a module-level loop, not a closure. *)

(* The type byte: {!Value.compare}'s order across constructors. *)
let[@inline] tag : Value.t -> int = function Null -> 0 | Int _ -> 1 | Float _ -> 2 | Str _ -> 3 | Bool _ -> 4

(* Inlined so that no caller boxes the int64. *)
let[@inline] int_key x = Int64.add (Int64.of_int x) Int64.min_int

let[@inline] float_key f =
  let bits = Int64.bits_of_float f in
  if Int64.compare bits 0L >= 0 then Int64.logxor bits Int64.min_int else Int64.lognot bits

(* [s] from [i], each 0x00 followed by 0xFF; the room is reserved. *)
let rec add_escaped k s i =
  if i < String.length s then begin
    let c = String.unsafe_get s i in
    add_byte k c;
    if Char.equal c '\x00' then add_byte k '\xff';
    add_escaped k s (i + 1)
  end

(* One [reserve] per value: the tag and at most 8 bytes, or a string
   escaped to at most twice its length and its terminator. *)
(* lint: hot-path *)
let add k (v : Value.t) =
  reserve k (match v with Str s -> (2 * String.length s) + 3 | _ -> 9);
  add_byte k (Char.unsafe_chr (tag v));
  match v with
  | Null -> ()
  | Int x ->
    Bytes.set_int64_be k.b k.len (int_key x);
    k.len <- k.len + 8
  | Float f ->
    Bytes.set_int64_be k.b k.len (float_key f);
    k.len <- k.len + 8
  | Str s ->
    add_escaped k s 0;
    add_byte k '\x00';
    add_byte k '\x00'
  | Bool b -> add_byte k (if b then '\x01' else '\x00')

(* [value_at]'s string walk: [s] from [i], escaped, then the terminator,
   read in the first [n] bytes of [key] from [p] without building the
   escaped copy. *)
let rec escaped_at key n p s i =
  if i >= String.length s then
    if p + 2 <= n && Char.equal (Bytes.unsafe_get key p) '\x00'
       && Char.equal (Bytes.unsafe_get key (p + 1)) '\x00'
    then p + 2
    else -1
  else
    let c = String.unsafe_get s i in
    if p >= n || not (Char.equal (Bytes.unsafe_get key p) c) then -1
    else if not (Char.equal c '\x00') then escaped_at key n (p + 1) s (i + 1)
    else if p + 1 < n && Char.equal (Bytes.unsafe_get key (p + 1)) '\xff' then
      escaped_at key n (p + 2) s (i + 1)
    else -1

(* lint: hot-path *)
let value_at k off (v : Value.t) =
  let key = k.b and n = k.len in
  if off < 0 || off >= n || Char.code (Bytes.unsafe_get key off) <> tag v then -1
  else
    let p = off + 1 in
    match v with
    | Null -> p
    | Int x -> if p + 8 <= n && Bytes.get_int64_be key p = int_key x then p + 8 else -1
    | Float f -> if p + 8 <= n && Bytes.get_int64_be key p = float_key f then p + 8 else -1
    | Str s -> escaped_at key n p s 0
    | Bool b ->
      if p < n && Char.equal (Bytes.unsafe_get key p) (if b then '\x01' else '\x00') then p + 1
      else -1

let rec same_bytes a b n i = i >= n || (Char.equal (Bytes.unsafe_get a i) (Bytes.unsafe_get b i) && same_bytes a b n (i + 1))
let equal x y = x.len = y.len && same_bytes x.b y.b x.len 0
let to_string k = Bytes.sub_string k.b 0 k.len
