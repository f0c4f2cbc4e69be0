(* The four xoshiro words live in one 32-byte buffer, read and written
   through [Bytes.get/set_int64_ne]: an [int64] record field is boxed,
   and storing one would allocate on every draw. This way a step stays
   in registers, and [int], [int_incl] and [bool] allocate nothing. *)
type t = Bytes.t

(* splitmix64 is used to expand the seed into the four xoshiro words and to
   derive split generators; it is statistically independent of xoshiro. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix st =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_ne t (8 * i) (splitmix64 st)
  done;
  t

let create ~seed = of_splitmix (ref (Int64.of_int seed))

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256**: the output is a function of the current [s1]; [advance]
   then steps the state. Both are inlined, so a draw keeps every word in
   registers and boxes nothing. *)
let[@inline] output t = Int64.mul (rotl (Int64.mul (Bytes.get_int64_ne t 8) 5L) 7) 9L

let[@inline] advance t =
  let open Int64 in
  let s0 = Bytes.get_int64_ne t 0
  and s1 = Bytes.get_int64_ne t 8
  and s2 = Bytes.get_int64_ne t 16
  and s3 = Bytes.get_int64_ne t 24 in
  let s2' = logxor s2 s0 and s3' = logxor s3 s1 in
  Bytes.set_int64_ne t 0 (logxor s0 s3');
  Bytes.set_int64_ne t 8 (logxor s1 s2');
  Bytes.set_int64_ne t 16 (logxor s2' (shift_left s1 17));
  Bytes.set_int64_ne t 24 (rotl s3' 45)

(* The output's top [64 - shift] bits as an [int]; [shift >= 2] makes
   them fit unboxed. *)
let[@inline] bits t shift =
  let r = Int64.to_int (Int64.shift_right_logical (output t) shift) in
  advance t;
  r

let next_int64 t =
  let r = output t in
  advance t;
  r

let split t = of_splitmix (ref (next_int64 t))

(* lint: hot-path *)
let int t bound =
  assert (bound > 0);
  bits t 2 mod bound

let int_incl t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

(* The top 53 bits fit an [int] exactly, so [float_of_int] rounds
   nothing. *)
let float t bound = bound *. (float_of_int (bits t 11) /. 9007199254740992.0)

let bool t =
  let r = Int64.to_int (Int64.logand (output t) 1L) in
  advance t;
  r = 1

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let alphanum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

let alpha_string t ~min_len ~max_len =
  let len = int_incl t min_len max_len in
  String.init len (fun _ -> alphanum.[int t (String.length alphanum)])

let numeric_string t ~len = String.init len (fun _ -> Char.chr (Char.code '0' + int t 10))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
