(* Tests for values, PAX pages, frozen blocks, latches and the buffer
   manager. Everything here runs outside fibers, where I/O completes
   synchronously — the fiber interleavings are covered in test_btree and
   test_txn. *)
open Phoebe_storage
module Engine = Phoebe_sim.Engine
module Device = Phoebe_io.Device
module Pagestore = Phoebe_io.Pagestore
module Crc32 = Phoebe_util.Crc32

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let value_eq : Value.t Alcotest.testable =
  Alcotest.testable (fun fmt v -> Value.pp fmt v) Value.equal

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_compare () =
  check_bool "null smallest" true (Value.compare Value.Null (Value.Int (-100)) < 0);
  check_bool "int order" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  check_bool "str order" true (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  check_bool "equal" true (Value.equal (Value.Float 1.5) (Value.Float 1.5))

let test_value_roundtrip () =
  List.iter
    (fun v ->
      let buf = Buffer.create 16 in
      Value.encode buf v;
      let got, _ = Value.decode (Buffer.to_bytes buf) 0 in
      Alcotest.check value_eq "roundtrip" v got)
    [ Value.Null; Value.Int 42; Value.Int (-7); Value.Float 3.25; Value.Str "hello"; Value.Bool true ]

(* Value.to_string on floats must print a form that reparses to the exact
   same double ("%g" truncates to 6 significant digits). *)
let test_float_to_string_roundtrip () =
  let check v =
    let s = Value.to_string (Value.Float v) in
    let got = float_of_string s in
    if not (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float v)) then
      Alcotest.failf "float %h printed as %S reparsed as %h" v s got
  in
  List.iter check
    [ 0.1 +. 0.2; 0.1; 1.0; -0.0; 0.0; 1e-300; 1.5e300; 4.0 *. atan 1.0;
      9007199254740993.1; 1.0 /. 3.0; infinity; neg_infinity ]

let prop_float_to_string_roundtrip =
  QCheck.Test.make ~name:"float to_string roundtrips exactly" ~count:1000 QCheck.float (fun f ->
      let s = Value.to_string (Value.Float f) in
      Int64.equal (Int64.bits_of_float (float_of_string s)) (Int64.bits_of_float f))

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) (float_bound_inclusive 1e9);
        map (fun s -> Value.Str s) string_small;
        map (fun b -> Value.Bool b) bool;
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let prop_value_roundtrip =
  QCheck.Test.make ~name:"value codec roundtrip" ~count:500 value_arb (fun v ->
      let buf = Buffer.create 16 in
      Value.encode buf v;
      let got, off = Value.decode (Buffer.to_bytes buf) 0 in
      Value.equal got v && off = Buffer.length buf)

module Keybuf = Phoebe_storage.Keybuf

let key_bytes v =
  let k = Keybuf.create () in
  Keybuf.add k v;
  Keybuf.to_string k

(* A key buffer holding the bytes [s]. *)
let keybuf_of s =
  let k = Keybuf.create () in
  Keybuf.add_string k s;
  k

(* A key buffer holding [s] whose bytes run on with [junk] past its
   length: a reader that went past the length would see the junk. *)
let keybuf_before_junk s junk =
  let k = keybuf_of (s ^ junk) in
  Keybuf.clear k;
  Keybuf.add_string k s;
  k

(* [Keybuf.value_at] over a whole string key. *)
let key_at k off v = Keybuf.value_at (keybuf_of k) off v

let prop_key_encoding_order =
  (* Order of encoded keys must match value order (same-type pairs). *)
  let pair_gen =
    QCheck.Gen.(
      oneof
        [
          map2 (fun a b -> (Value.Int a, Value.Int b)) int int;
          map2 (fun a b -> (Value.Str a, Value.Str b)) string_small string_small;
          map2
            (fun a b -> (Value.Float a, Value.Float b))
            (float_bound_inclusive 1e6) (float_bound_inclusive 1e6);
        ])
  in
  QCheck.Test.make ~name:"memcomparable key order" ~count:1000
    (QCheck.make
       ~print:(fun (a, b) -> Value.to_string a ^ " / " ^ Value.to_string b)
       pair_gen)
    (fun (a, b) ->
      let ca = compare (key_bytes a) (key_bytes b) and cv = Value.compare a b in
      (ca < 0) = (cv < 0) && (ca = 0) = (cv = 0))

(* [value_at] agrees with [add]: on its encoding, with bytes before
   and after, it returns the offset just past the value. *)
let key_at_cases =
  [
    Value.Null;
    Value.Int min_int;
    Value.Int (-1);
    Value.Int 0;
    Value.Int max_int;
    Value.Float (-0.0);
    Value.Float 0.0;
    Value.Float (-1.5);
    Value.Float (-1e300);
    Value.Float infinity;
    Value.Float neg_infinity;
    Value.Str "";
    Value.Str "\x00";
    Value.Str "a\x00b";
    Value.Str "\xff";
    Value.Str "\x00\xff\x00";
    Value.Bool false;
    Value.Bool true;
  ]

let test_key_at_agrees () =
  List.iter
    (fun v ->
      let k = key_bytes v in
      let name = Value.to_string v in
      check_int (name ^ ": whole key") (String.length k) (key_at k 0 v);
      check_int (name ^ ": at an offset") (String.length k + 3) (key_at ("abc" ^ k ^ "z") 3 v))
    key_at_cases

(* A key that differs in any one byte and a truncated key are rejected.
   A key with a trailing byte matches up to the value's end and no
   further, so a caller that needs the whole key (as [Table]'s key match
   does) sees an offset short of its length. *)
let test_key_at_rejects () =
  List.iter
    (fun v ->
      let k = key_bytes v in
      let name = Value.to_string v in
      for i = 0 to String.length k - 1 do
        let b = Bytes.of_string k in
        Bytes.set b i (Char.chr ((Char.code k.[i] + 1) land 0xff));
        check_int (Printf.sprintf "%s: byte %d altered" name i) (-1)
          (key_at (Bytes.to_string b) 0 v)
      done;
      for n = 0 to String.length k - 1 do
        check_int (Printf.sprintf "%s: truncated to %d" name n) (-1)
          (key_at (String.sub k 0 n) 0 v);
        check_int (Printf.sprintf "%s: cut to %d by the length" name n) (-1)
          (Keybuf.value_at (keybuf_before_junk (String.sub k 0 n) (String.sub k n (String.length k - n))) 0 v)
      done;
      check_int (name ^ ": trailing byte left over") (String.length k)
        (key_at (k ^ "\x00") 0 v))
    key_at_cases;
  check_int "another value of the same type" (-1) (key_at (key_bytes (Value.Int 7)) 0 (Value.Int 8));
  check_int "another type" (-1) (key_at (key_bytes (Value.Int 0)) 0 (Value.Bool false))

let prop_key_at_agrees =
  QCheck.Test.make ~name:"key_at walks concatenated keys" ~count:1000
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      let ka = key_bytes a and kb = key_bytes b in
      let ab = ka ^ kb in
      key_at ab 0 a = String.length ka
      && key_at ab (String.length ka) b = String.length ab
      && (key_at kb 0 a = String.length kb) = String.equal ka kb)

(* The index tree's one key comparison orders a stored key against a
   key buffer as [String.compare] orders the two strings.
   Keys are drawn over an alphabet of [\x00], [\xff] and two letters,
   so equal prefixes, a key that is a prefix of the other and the byte
   extremes come up often; the probe's bytes run past its length with
   junk that must not be read, and half the probes extend or cut the
   key. *)
let prop_compare_key_is_string_compare =
  let byte = QCheck.Gen.oneofl [ '\x00'; '\xff'; 'a'; 'b' ] in
  let key = QCheck.Gen.(string_size ~gen:byte (int_range 0 20)) in
  let probe_of k =
    QCheck.Gen.(
      oneof
        [
          key;
          map2 (fun n tail -> String.sub k 0 (min n (String.length k)) ^ tail) (int_range 0 20) key;
        ])
  in
  let gen = QCheck.Gen.(key >>= fun k -> map2 (fun p junk -> (k, p, junk)) (probe_of k) key) in
  QCheck.Test.make ~name:"compare_key orders as String.compare" ~count:2000
    (QCheck.make ~print:(fun (k, p, j) -> Printf.sprintf "%S / %S + %S" k p j) gen)
    (fun (k, p, junk) ->
      Phoebe_btree.Index_tree.compare_key k (keybuf_before_junk p junk) = String.compare k p)

(* A shared cell is indistinguishable from a fresh [Int n]: equal to
   it, ordered like it against any other value, and keyed identically.
   The edges of the shared range and of [int] are always drawn. *)
let prop_of_int_agrees =
  let n_gen =
    QCheck.Gen.(
      oneof
        [ oneofl [ min_int; -1; 0; 4095; 4096; max_int ]; int_range (-10) 5000; int ])
  in
  QCheck.Test.make ~name:"of_int agrees with Int" ~count:1000
    (QCheck.pair (QCheck.make ~print:string_of_int n_gen) value_arb)
    (fun (n, other) ->
      let shared = Value.of_int n and fresh = Value.Int n in
      let key = key_bytes fresh in
      Value.equal shared fresh
      && Value.compare shared fresh = 0
      && Value.compare shared other = Value.compare fresh other
      && Value.compare other shared = Value.compare other fresh
      && String.equal (key_bytes shared) key
      && key_at key 0 shared = String.length key)

let test_schema () =
  let s = Value.Schema.make [ ("id", Value.T_int); ("name", Value.T_str); ("ok", Value.T_bool) ] in
  check_int "arity" 3 (Value.Schema.arity s);
  check_int "index" 1 (Value.Schema.column_index s "name");
  check_bool "good row" true
    (Value.Schema.check_row s [| Value.Int 1; Value.Str "x"; Value.Bool true |]);
  check_bool "null ok" true (Value.Schema.check_row s [| Value.Int 1; Value.Null; Value.Bool true |]);
  check_bool "type mismatch" false
    (Value.Schema.check_row s [| Value.Str "no"; Value.Str "x"; Value.Bool true |]);
  check_bool "arity mismatch" false (Value.Schema.check_row s [| Value.Int 1 |]);
  Alcotest.check_raises "unknown column" Not_found (fun () ->
      ignore (Value.Schema.column_index s "missing"))

(* ------------------------------------------------------------------ *)
(* Pax *)

let schema2 = Value.Schema.make [ ("k", Value.T_int); ("payload", Value.T_str) ]
let row k s = [| Value.Int k; Value.Str s |]

let test_pax_append_get () =
  let p = Pax.create schema2 ~capacity:8 in
  let s0 = Pax.append p ~row_id:10 (row 1 "a") in
  let s1 = Pax.append p ~row_id:20 (row 2 "b") in
  check_int "slot0" 0 s0;
  check_int "slot1" 1 s1;
  check_int "count" 2 (Pax.count p);
  Alcotest.check value_eq "col read" (Value.Str "b") (Pax.get_col p ~slot:1 ~col:1);
  check_int "row id" 20 (Pax.row_id_at p ~slot:1);
  check_bool "find present" true (Pax.find p ~row_id:10 = 0);
  check_bool "find absent" true (Pax.find p ~row_id:15 = -1)

(* [Pax.find] against a plain bisection over the page's row ids, for
   every row id from below the first to past the last. *)
let bisect_rid p ~row_id =
  let rec go lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      let v = Pax.row_id_at p ~slot:mid in
      if v = row_id then mid else if v < row_id then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (Pax.count p - 1)

let check_find_matches_bisect name rids =
  let p = Pax.create schema2 ~capacity:64 in
  List.iter (fun rid -> ignore (Pax.append p ~row_id:rid (row rid "x"))) rids;
  for row_id = -3 to 110 do
    check_int (Printf.sprintf "%s: rid %d" name row_id) (bisect_rid p ~row_id) (Pax.find p ~row_id)
  done

let test_pax_find_matches_bisect () =
  check_find_matches_bisect "dense" (List.init 40 (fun i -> 20 + i));
  check_find_matches_bisect "skipping" [ 0; 1; 2; 5; 6; 9; 30; 31; 32; 33; 70; 100 ];
  check_find_matches_bisect "one row" [ 7 ];
  check_find_matches_bisect "empty" []

let test_pax_ordering_enforced () =
  let p = Pax.create schema2 ~capacity:8 in
  ignore (Pax.append p ~row_id:5 (row 1 "a"));
  check_bool "decreasing rid rejected" true
    (try
       ignore (Pax.append p ~row_id:5 (row 2 "b"));
       false
     with Invalid_argument _ -> true)

let test_pax_full () =
  let p = Pax.create schema2 ~capacity:2 in
  ignore (Pax.append p ~row_id:1 (row 1 "a"));
  ignore (Pax.append p ~row_id:2 (row 2 "b"));
  check_bool "full" true (Pax.is_full p);
  check_bool "append on full rejected" true
    (try
       ignore (Pax.append p ~row_id:3 (row 3 "c"));
       false
     with Invalid_argument _ -> true)

let test_pax_update_delete_compact () =
  let p = Pax.create schema2 ~capacity:8 in
  ignore (Pax.append p ~row_id:1 (row 1 "a"));
  ignore (Pax.append p ~row_id:2 (row 2 "b"));
  ignore (Pax.append p ~row_id:3 (row 3 "c"));
  Pax.set_col p ~slot:1 ~col:1 (Value.Str "B!");
  Alcotest.check value_eq "in-place update" (Value.Str "B!") (Pax.get_col p ~slot:1 ~col:1);
  Pax.mark_deleted p ~slot:0;
  check_bool "deleted" true (Pax.is_deleted p ~slot:0);
  check_int "live" 2 (Pax.live_count p);
  (* freezing compacts a leaf through [iter_live]: the live tuples, as
     updated in place *)
  let seen = ref [] in
  Pax.iter_live p (fun rid row -> seen := (rid, row.(1)) :: !seen);
  Alcotest.(check (list (pair int value_eq)))
    "iter skips deleted" [ (2, Value.Str "B!"); (3, Value.Str "c") ] (List.rev !seen)

let test_pax_null_handling () =
  let p = Pax.create schema2 ~capacity:4 in
  ignore (Pax.append p ~row_id:1 [| Value.Null; Value.Str "x" |]);
  Alcotest.check value_eq "null read back" Value.Null (Pax.get_col p ~slot:0 ~col:0);
  Pax.set_col p ~slot:0 ~col:0 (Value.Int 9);
  Alcotest.check value_eq "overwrite null" (Value.Int 9) (Pax.get_col p ~slot:0 ~col:0)

let test_pax_codec_roundtrip () =
  let p = Pax.create schema2 ~capacity:16 in
  for i = 1 to 10 do
    ignore (Pax.append p ~row_id:(i * 3) (row i (String.make i 'x')))
  done;
  Pax.mark_deleted p ~slot:4;
  let q = Pax.decode (Pax.encode p) in
  check_int "count" (Pax.count p) (Pax.count q);
  check_bool "delete mark survives" true (Pax.is_deleted q ~slot:4);
  for slot = 0 to 9 do
    Alcotest.check (Alcotest.array value_eq) "tuple" (Pax.get p ~slot) (Pax.get q ~slot)
  done

let test_pax_codec_detects_corruption () =
  let p = Pax.create schema2 ~capacity:4 in
  ignore (Pax.append p ~row_id:1 (row 1 "hello"));
  let b = Pax.encode p in
  let off = Bytes.length b - 3 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
  check_bool "corruption detected" true
    (try
       ignore (Pax.decode b);
       false
     with Failure _ -> true)

let prop_pax_roundtrip =
  let gen = QCheck.Gen.(list_size (int_range 1 20) (pair small_nat string_small)) in
  QCheck.Test.make ~name:"pax codec roundtrip" ~count:200 (QCheck.make gen) (fun rows ->
      let p = Pax.create schema2 ~capacity:(List.length rows) in
      List.iteri (fun i (k, s) -> ignore (Pax.append p ~row_id:(i + 1) (row k s))) rows;
      let q = Pax.decode (Pax.encode p) in
      List.for_all
        (fun i ->
          Pax.get q ~slot:i = Pax.get p ~slot:i && Pax.row_id_at q ~slot:i = i + 1)
        (List.init (List.length rows) Fun.id))

(* The PAX image format's definition: header, row ids and delete marks,
   then every cell column-major as [Value.encode] of the boxed cell.
   The encoder writes each column straight from its typed store and
   must reproduce this byte for byte. *)
let reference_pax_image p =
  let module Varint = Phoebe_util.Varint in
  let buf = Buffer.create 256 in
  Varint.write_uint buf (Pax.capacity p);
  Varint.write_uint buf (Pax.count p);
  Varint.write_uint buf (Pax.gsn p);
  Value.Schema.write buf (Pax.schema p);
  for slot = 0 to Pax.count p - 1 do
    Varint.write_uint buf (Pax.row_id_at p ~slot);
    Buffer.add_char buf (if Pax.is_deleted p ~slot then '\x01' else '\x00')
  done;
  for col = 0 to Value.Schema.arity (Pax.schema p) - 1 do
    for slot = 0 to Pax.count p - 1 do
      Value.encode buf (Pax.get p ~slot).(col)
    done
  done;
  Crc32.seal buf

(* Cells at the format's edges: extreme and negative ints, nan, -0.0
   and infinities, empty strings and strings long enough for a two-byte
   length varint. *)
let gen_cell ty =
  let open QCheck.Gen in
  frequency
    [
      (1, return Value.Null);
      ( 4,
        match ty with
        | Value.T_int ->
          map (fun v -> Value.Int v) (oneof [ oneofl [ min_int; max_int; -1; 0; 63; 64 ]; int ])
        | Value.T_float ->
          map
            (fun f -> Value.Float f)
            (oneof [ oneofl [ Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity ]; float ])
        | Value.T_str ->
          map
            (fun s -> Value.Str s)
            (oneof [ return ""; string_size (int_range 1 8); string_size (int_range 128 300) ])
        | Value.T_bool -> map (fun b -> Value.Bool b) bool );
    ]

(* A random page: one to five columns of any type, up to 24 rows with
   gapped row ids, random delete marks, spare capacity and a GSN up to
   three varint bytes. *)
let gen_pax_page =
  let open QCheck.Gen in
  list_size (int_range 1 5) (oneofl Value.[ T_int; T_float; T_str; T_bool ]) >>= fun types ->
  let row = flatten_l (List.map gen_cell types) in
  list_size (int_range 0 24) (triple row (int_range 1 5) bool) >>= fun rows ->
  pair (int_range 0 8) (int_range 0 2_000_000) >|= fun (spare, gsn) ->
  let schema = Value.Schema.make (List.mapi (fun i ty -> (Printf.sprintf "c%d" i, ty)) types) in
  let p = Pax.create schema ~capacity:(max 1 (List.length rows + spare)) in
  ignore
    (List.fold_left
       (fun rid (cells, gap, deleted) ->
         let rid = rid + gap in
         let slot = Pax.append p ~row_id:rid (Array.of_list cells) in
         if deleted then Pax.mark_deleted p ~slot;
         rid)
       0 rows);
  Pax.set_gsn p gsn;
  p

let print_pax_page p =
  String.concat "\n"
    (List.init (Pax.count p) (fun slot ->
         Printf.sprintf "%d%s: %s" (Pax.row_id_at p ~slot)
           (if Pax.is_deleted p ~slot then " (deleted)" else "")
           (String.concat ", " (Array.to_list (Array.map Value.to_string (Pax.get p ~slot))))))

let prop_pax_codec_byte_identity =
  QCheck.Test.make ~name:"pax codec: byte-identical to the reference, decode round-trips"
    ~count:300 (QCheck.make ~print:print_pax_page gen_pax_page) (fun p ->
      let image = Pax.encode p in
      let q = Pax.decode image in
      Bytes.equal image (reference_pax_image p)
      && Bytes.equal (Pax.encode q) image
      && Pax.size_bytes q = Pax.size_bytes p
      && List.for_all
           (fun slot ->
             Pax.row_id_at q ~slot = Pax.row_id_at p ~slot
             && Pax.is_deleted q ~slot = Pax.is_deleted p ~slot
             && Array.for_all2 Value.equal (Pax.get q ~slot) (Pax.get p ~slot))
           (List.init (Pax.count p) Fun.id))

(* A well-sealed image whose one cell carries another column type's tag
   is rejected, as [set_col] rejects the value. *)
let test_pax_decode_rejects_mistyped_cell () =
  let module Varint = Phoebe_util.Varint in
  let buf = Buffer.create 64 in
  List.iter (Varint.write_uint buf) [ 1; 1; 0 ];
  Value.Schema.write buf (Value.Schema.make [ ("k", Value.T_int) ]);
  Varint.write_uint buf 7;
  Buffer.add_char buf '\x00';
  Value.encode buf (Value.Str "x");
  check_bool "mistyped cell rejected" true
    (match Pax.decode (Crc32.seal buf) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Frozen *)

let build_page rows =
  let p = Pax.create schema2 ~capacity:(max 1 (List.length rows)) in
  List.iter (fun (rid, k, s) -> ignore (Pax.append p ~row_id:rid (row k s))) rows;
  p

(* A frozen row that is not delete-marked, decoded into a fresh row. *)
let frozen_get b ~row_id =
  let row = Array.make (Value.Schema.arity (Frozen.schema b)) Value.Null in
  if Frozen.is_deleted b ~row_id || not (Frozen.get_raw_into b ~row_id row) then None else Some row

let test_frozen_basics () =
  let p1 = build_page [ (1, 10, "aa"); (2, 20, "bb") ] in
  let p2 = build_page [ (3, 30, "cc"); (4, 40, "aa") ] in
  let b = Frozen.freeze [ p1; p2 ] in
  check_int "first" 1 (Frozen.first_row_id b);
  check_int "last" 4 (Frozen.last_row_id b);
  check_int "count" 4 (Frozen.count b);
  (match frozen_get b ~row_id:3 with
  | Some r -> Alcotest.check (Alcotest.array value_eq) "tuple" (row 30 "cc") r
  | None -> Alcotest.fail "row 3 missing");
  check_bool "absent rid" true (frozen_get b ~row_id:99 = None)

let test_frozen_skips_deleted_on_freeze () =
  let p = build_page [ (1, 1, "a"); (2, 2, "b"); (3, 3, "c") ] in
  Pax.mark_deleted p ~slot:1;
  let b = Frozen.freeze [ p ] in
  check_int "only live rows frozen" 2 (Frozen.count b);
  check_bool "deleted row absent" true (frozen_get b ~row_id:2 = None)

let test_frozen_out_of_place_delete () =
  let b = Frozen.freeze [ build_page [ (1, 1, "a"); (2, 2, "b") ] ] in
  check_bool "delete live" true (Frozen.mark_deleted b ~row_id:1);
  check_bool "double delete" false (Frozen.mark_deleted b ~row_id:1);
  check_bool "get deleted" true (frozen_get b ~row_id:1 = None);
  let under = Array.make 2 Value.Null in
  check_bool "content under the mark decodes" true (Frozen.get_raw_into b ~row_id:1 under);
  Alcotest.check (Alcotest.array value_eq) "marked row's content" (row 1 "a") under;
  check_bool "absent rid decodes nothing" false (Frozen.get_raw_into b ~row_id:9 under);
  check_int "live count" 1 (Frozen.live_count b);
  let seen = ref [] in
  Frozen.iter_live b (fun rid _ -> seen := rid :: !seen);
  Alcotest.(check (list int)) "iter skips" [ 2 ] !seen

let test_frozen_compresses_repetitive_data () =
  let rows = List.init 200 (fun i -> (i + 1, i + 1, Printf.sprintf "status-%d" (i mod 3))) in
  let b = Frozen.freeze [ build_page rows ] in
  check_bool "compression ratio > 2" true
    (float_of_int (Frozen.uncompressed_bytes b) /. float_of_int (Frozen.compressed_bytes b) > 2.0)

let test_frozen_codec_roundtrip () =
  let rows = List.init 50 (fun i -> (i * 2 + 1, i * 7, Printf.sprintf "v%d" (i mod 5))) in
  let b = Frozen.freeze [ build_page rows ] in
  ignore (Frozen.mark_deleted b ~row_id:5);
  let b' = Frozen.decode (Frozen.encode b) in
  check_int "count" (Frozen.count b) (Frozen.count b');
  check_bool "delete mark survives" true (frozen_get b' ~row_id:5 = None);
  List.iter
    (fun (rid, k, s) ->
      if rid <> 5 then
        match frozen_get b' ~row_id:rid with
        | Some r -> Alcotest.check (Alcotest.array value_eq) "tuple" (row k s) r
        | None -> Alcotest.failf "row %d missing after roundtrip" rid)
    rows

let prop_frozen_roundtrip =
  let gen = QCheck.Gen.(list_size (int_range 1 30) (pair small_nat (string_size (int_range 0 8)))) in
  QCheck.Test.make ~name:"frozen codec roundtrip" ~count:100 (QCheck.make gen) (fun rows ->
      let page = build_page (List.mapi (fun i (k, s) -> (i + 1, k, s)) rows) in
      let b = Frozen.freeze [ page ] in
      let b' = Frozen.decode (Frozen.encode b) in
      List.for_all
        (fun i ->
          let rid = i + 1 in
          frozen_get b ~row_id:rid = frozen_get b' ~row_id:rid)
        (List.init (List.length rows) Fun.id))

(* ------------------------------------------------------------------ *)
(* Latch *)

let test_latch_modes () =
  let l = Latch.create () in
  let v0 = Latch.version l in
  Latch.acquire_shared l;
  Latch.acquire_shared l;
  Latch.release_shared l;
  Latch.release_shared l;
  check_int "shared does not bump version" v0 (Latch.version l);
  Latch.acquire_exclusive l;
  check_bool "exclusive" true (Latch.is_exclusive l);
  Latch.release_exclusive l;
  check_int "exclusive bumps version" (v0 + 1) (Latch.version l);
  Alcotest.check_raises "bad release" (Invalid_argument "Latch.release_shared: not share-latched")
    (fun () -> Latch.release_shared l)

let test_latch_optimistic_read () =
  let l = Latch.create () in
  let r = Latch.optimistic_read l (fun () -> 42) in
  check_int "reads value" 42 r;
  (* A write between reads must be visible through the version. *)
  let v0 = Latch.version l in
  Latch.with_exclusive l (fun () -> ());
  check_bool "version bumped" true (Latch.version l > v0)

let test_latch_with_exclusive_exception_safe () =
  let l = Latch.create () in
  (try Latch.with_exclusive l (fun () -> failwith "inner") with Failure _ -> ());
  check_bool "released after exception" false (Latch.is_exclusive l)

(* ------------------------------------------------------------------ *)
(* Bufmgr *)

let pax_codec : Pax.t Bufmgr.codec =
  { Bufmgr.encode = Pax.encode; decode = Pax.decode; size = Pax.size_bytes }

let make_pool ?(partitions = 1) ?(budget = 1_000_000) () =
  let eng = Engine.create () in
  let dev = Device.create eng ~name:"data" Device.pm9a3 in
  let store = Pagestore.create dev in
  (eng, store, Bufmgr.create eng ~store ~partitions ~budget_bytes:budget ~codec:pax_codec)

let small_page tag =
  let p = Pax.create schema2 ~capacity:4 in
  ignore (Pax.append p ~row_id:tag (row tag (Printf.sprintf "page-%d" tag)));
  p

let test_buf_alloc_resolve () =
  let _, _, pool = make_pool () in
  let f = Bufmgr.alloc pool ~partition:0 (small_page 7) in
  let swip = Bufmgr.swip_of f in
  let f' = Bufmgr.resolve pool swip in
  check_bool "same frame" true (f == f');
  check_int "page has content" 1 (Pax.count (Bufmgr.payload f'));
  check_bool "fresh page dirty" true (Bufmgr.is_dirty f)

(* eviction honours a recency guard: hop virtual time forward so freshly
   touched frames become eligible *)
let age eng = Engine.run_until eng ~time:(Engine.now eng + 1_000_000)

let test_buf_eviction_and_fault () =
  let eng, store, pool = make_pool ~budget:4096 () in
  (* Allocate far more page bytes than the budget. *)
  let swips =
    List.init 40 (fun i ->
        let f = Bufmgr.alloc pool ~partition:0 (small_page (i + 1)) in
        let s = Bufmgr.swip_of f in
        Bufmgr.set_parent f s;
        s)
  in
  age eng;
  Bufmgr.maintain pool ~partition:0;
  check_bool "within budget after maintain" true (Bufmgr.resident_bytes pool <= 4096 * 2);
  check_bool "pages were written out" true (Pagestore.page_count store > 0);
  (* Fault one cold page back in and check contents. *)
  let missing =
    List.filter
      (fun s ->
        match Bufmgr.resolve ~touch:false pool s with
        | f -> Pax.count (Bufmgr.payload f) = 1)
      swips
  in
  check_int "all pages readable after eviction" 40 (List.length missing)

let test_buf_second_chance () =
  let _, _, pool = make_pool ~budget:100_000 () in
  let f = Bufmgr.alloc pool ~partition:0 (small_page 1) in
  let s = Bufmgr.swip_of f in
  Bufmgr.set_parent f s;
  (* Force it into cooling by shrinking the budget, then touch it. *)
  Bufmgr.set_budget pool ~budget_bytes:1;
  (* A resolve during cooling must re-heat rather than lose the page. *)
  let f' = Bufmgr.resolve pool s in
  check_bool "still same frame" true (f == f');
  check_bool "resident" true (Bufmgr.is_resident f)

let test_buf_pin_blocks_eviction () =
  let eng, _, pool = make_pool ~budget:64 () in
  let f = Bufmgr.alloc pool ~partition:0 (small_page 1) in
  let s = Bufmgr.swip_of f in
  Bufmgr.set_parent f s;
  Bufmgr.pin f;
  age eng;
  Bufmgr.maintain pool ~partition:0;
  check_bool "pinned page stays resident" true (Bufmgr.is_resident f);
  Bufmgr.unpin f;
  age eng;
  Bufmgr.maintain pool ~partition:0;
  check_bool "unpinned page evicted" false (Bufmgr.is_resident f)

let test_buf_dirty_writeback_roundtrip () =
  let eng, _, pool = make_pool ~budget:64 () in
  let page = small_page 3 in
  let f = Bufmgr.alloc pool ~partition:0 page in
  let s = Bufmgr.swip_of f in
  Bufmgr.set_parent f s;
  Pax.set_col page ~slot:0 ~col:1 (Value.Str "modified");
  Bufmgr.mark_dirty f;
  age eng;
  Bufmgr.maintain pool ~partition:0;
  check_bool "evicted" false (Bufmgr.is_resident f);
  let f' = Bufmgr.resolve pool s in
  Alcotest.check value_eq "modification survived eviction" (Value.Str "modified")
    (Pax.get_col (Bufmgr.payload f') ~slot:0 ~col:1)

(* The page GSN is part of the page image: an evicted page, faulted
   back in by a pool rebuilt over the same store (a restart's pool),
   still carries it. *)
let test_buf_gsn_survives_eviction () =
  let eng, store, pool = make_pool ~budget:64 () in
  let page = small_page 1 in
  Pax.set_gsn page 42;
  let f = Bufmgr.alloc pool ~partition:0 page in
  Bufmgr.set_parent f (Bufmgr.swip_of f);
  age eng;
  Bufmgr.maintain pool ~partition:0;
  check_bool "evicted" false (Bufmgr.is_resident f);
  let rebuilt = Bufmgr.create eng ~store ~partitions:1 ~budget_bytes:1_000_000 ~codec:pax_codec in
  let f' = Bufmgr.resolve rebuilt (Bufmgr.cold_swip (Bufmgr.page_id f)) in
  check_int "gsn after fault-in" 42 (Pax.gsn (Bufmgr.payload f'))

(* Regression: every drop/evict interleaving must return [used_bytes] to
   zero — a frame removed from the table without subtracting its size
   leaks budget and starves the partition permanently. *)
let test_buf_accounting_returns_to_zero () =
  let eng, _, pool = make_pool ~budget:1_000_000 () in
  let frames =
    List.init 12 (fun i ->
        let f = Bufmgr.alloc pool ~partition:0 (small_page (i + 1)) in
        let s = Bufmgr.swip_of f in
        Bufmgr.set_parent f s;
        (f, s))
  in
  check_bool "resident after alloc" true (Bufmgr.resident_bytes pool > 0);
  (* drop every even page, then evict the rest *)
  List.iteri (fun i (f, _) -> if i mod 2 = 0 then Bufmgr.drop pool f) frames;
  age eng;
  Bufmgr.set_budget pool ~budget_bytes:1;
  Bufmgr.maintain pool ~partition:0;
  check_int "all evicted or dropped" 0 (Bufmgr.resident_pages pool);
  check_int "accounting back to zero" 0 (Bufmgr.resident_bytes pool);
  (* fault the evicted half back in, then drop those too *)
  let evicted = List.filteri (fun i _ -> i mod 2 = 1) frames in
  List.iter (fun (_, s) -> ignore (Bufmgr.resolve ~touch:false pool s)) evicted;
  check_bool "resident after refault" true (Bufmgr.resident_bytes pool > 0);
  List.iter
    (fun (_, s) ->
      match Bufmgr.resident_frame_of_swip s with
      | Some f -> Bufmgr.drop pool f
      | None -> Alcotest.fail "refaulted page should be resident")
    evicted;
  check_int "zero again after drops" 0 (Bufmgr.resident_bytes pool);
  check_int "no pages leaked" 0 (Bufmgr.resident_pages pool)

(* ------------------------------------------------------------------ *)
(* Background cleaner *)

module Scheduler = Phoebe_runtime.Scheduler

let make_cleaner_pool ?(budget = 4096) ?(latency_us = 90.0) ?(batch_pages = 8) () =
  let eng = Engine.create () in
  let dev =
    Device.create eng ~name:"data"
      { Device.channels = 2; read_mb_s = 1000.0; write_mb_s = 500.0; iops = 100_000.0; latency_us }
  in
  let store = Pagestore.create dev in
  let pool = Bufmgr.create eng ~store ~partitions:1 ~budget_bytes:budget ~codec:pax_codec in
  let sched =
    Scheduler.create eng
      { Scheduler.default_config with Scheduler.n_workers = 1; slots_per_worker = 4 }
  in
  Bufmgr.attach_cleaner pool ~scheduler:sched
    { Bufmgr.default_cleaner with Bufmgr.cl_batch_pages = batch_pages };
  (eng, dev, store, pool, sched)

let test_buf_cleaner_batches_writes () =
  let eng, dev, _, pool, sched = make_cleaner_pool () in
  let swips =
    List.init 40 (fun i ->
        let f = Bufmgr.alloc pool ~partition:0 (small_page (i + 1)) in
        let s = Bufmgr.swip_of f in
        Bufmgr.set_parent f s;
        s)
  in
  age eng;
  Bufmgr.maintain pool ~partition:0;
  Scheduler.run_until_quiescent sched;
  Bufmgr.maintain pool ~partition:0;
  let cs = Bufmgr.cleaner_stats pool in
  check_bool "cleaner ran" true (cs.Bufmgr.batches_submitted >= 1);
  check_bool "pages went out in batches" true
    (cs.Bufmgr.pages_cleaned >= 2 * cs.Bufmgr.batches_submitted);
  check_int "eviction never wrote inline" 0 cs.Bufmgr.dirty_evict_fallbacks;
  check_bool "cleaned frames evicted by pointer unswizzle" true (cs.Bufmgr.clean_evicts > 0);
  check_bool "device saw multi-page submissions" true
    (Device.total_ops dev Device.Write > Device.total_batches dev Device.Write);
  check_bool "partition back under budget" true (Bufmgr.resident_bytes pool <= 4096);
  (* every page survives the clean+evict cycle *)
  List.iter
    (fun s -> check_int "content intact" 1 (Pax.count (Bufmgr.payload (Bufmgr.resolve ~touch:false pool s))))
    swips

let test_buf_cleaner_coalesces_inflight_redirty () =
  (* long device latency so the first batch is in flight for 50ms *)
  let eng, _, _, pool, sched = make_cleaner_pool ~latency_us:50_000.0 () in
  let frames =
    List.init 40 (fun i ->
        let p = small_page (i + 1) in
        let f = Bufmgr.alloc pool ~partition:0 p in
        let s = Bufmgr.swip_of f in
        Bufmgr.set_parent f s;
        (p, f, s))
  in
  let marked_page, marked_frame, marked_swip =
    match frames with (p, f, s) :: _ -> (p, f, s) | [] -> assert false
  in
  age eng;
  Bufmgr.maintain pool ~partition:0;
  (* while the first batch is on the wire, re-dirty every frame; the
     cleaner must re-queue them, not lose the second write *)
  Engine.schedule_at eng
    ~time:(Engine.now eng + 2_000_000)
    (fun () ->
      Pax.set_col marked_page ~slot:0 ~col:1 (Value.Str "modified-in-flight");
      List.iter
        (fun (_, f, _) -> if Bufmgr.is_resident f then Bufmgr.mark_dirty f)
        frames);
  Scheduler.run_until_quiescent sched;
  let cs = Bufmgr.cleaner_stats pool in
  check_bool "in-flight re-dirty was re-queued" true (cs.Bufmgr.pages_requeued >= 1);
  (* the marked page's final store image must carry the second write:
     evict it and fault it back from the store *)
  ignore marked_frame;
  age eng;
  Bufmgr.set_budget pool ~budget_bytes:1;
  Bufmgr.maintain pool ~partition:0;
  Scheduler.run_until_quiescent sched;
  Bufmgr.maintain pool ~partition:0;
  (match Bufmgr.resident_frame_of_swip marked_swip with
  | Some _ -> Alcotest.fail "marked page should have been evicted"
  | None -> ());
  let f' = Bufmgr.resolve ~touch:false pool marked_swip in
  Alcotest.check value_eq "second write survived coalescing" (Value.Str "modified-in-flight")
    (Pax.get_col (Bufmgr.payload f') ~slot:0 ~col:1)

(* Regression: a frame demoted twice (demote, touch, demote) leaves two
   entries on the cooling queue. The first evicts it; once the page is
   faulted back into the same partition as a new frame, the second entry
   is stale. It must be skipped: evicting through it would unswizzle the
   parent swip the new, dirty frame hangs off and drop its write. *)
let test_buf_stale_cooling_entry () =
  let eng, _, _, pool, sched = make_cleaner_pool ~latency_us:50_000.0 ~batch_pages:2 () in
  let f = Bufmgr.alloc pool ~partition:0 (small_page 1) in
  let s = Bufmgr.swip_of f in
  Bufmgr.set_parent f s;
  age eng;
  Bufmgr.set_budget pool ~budget_bytes:1;
  (* first demotion: the dirty frame waits on the cooling queue for the
     cleaner, whose write is in flight for 50 ms *)
  Bufmgr.maintain pool ~partition:0;
  (* touched mid-write: re-heated, so the cleaner's next sweep demotes
     it a second time and then evicts it through the first entry *)
  Engine.schedule_at eng
    ~time:(Engine.now eng + 2_000_000)
    (fun () -> ignore (Bufmgr.resolve pool s));
  Scheduler.run_until_quiescent sched;
  check_bool "evicted through the first entry" false (Bufmgr.is_resident f);
  let g = Bufmgr.resolve pool s in
  Pax.set_col (Bufmgr.payload g) ~slot:0 ~col:1 (Value.Str "refaulted-write");
  Bufmgr.mark_dirty g;
  age eng;
  Bufmgr.maintain pool ~partition:0;
  (match Bufmgr.resident_frame_of_swip s with
  | Some g' -> check_bool "re-faulted frame still swizzled" true (g' == g)
  | None -> Alcotest.fail "re-faulted page was unswizzled through the stale entry");
  check_bool "re-faulted frame still dirty" true (Bufmgr.is_dirty g);
  Scheduler.run_until_quiescent sched;
  Bufmgr.maintain pool ~partition:0;
  let g' = Bufmgr.resolve ~touch:false pool s in
  Alcotest.check value_eq "new content survives" (Value.Str "refaulted-write")
    (Pax.get_col (Bufmgr.payload g') ~slot:0 ~col:1)

(* With the cleaner off, eviction writes a dirty frame inline. A re-dirty
   while that write is on the device must keep the frame dirty and
   resident: the image on its way out is already stale. *)
let test_buf_inline_writeback_redirty () =
  let eng, _, _, pool, sched = make_cleaner_pool ~latency_us:50_000.0 () in
  Bufmgr.attach_cleaner pool ~scheduler:sched
    { Bufmgr.default_cleaner with Bufmgr.cl_enabled = false };
  let page = small_page 1 in
  let f = Bufmgr.alloc pool ~partition:0 page in
  let s = Bufmgr.swip_of f in
  Bufmgr.set_parent f s;
  age eng;
  Bufmgr.set_budget pool ~budget_bytes:1;
  (* the inline write suspends its fiber, so eviction runs in one *)
  let evict () = Scheduler.submit sched (fun () -> Bufmgr.maintain pool ~partition:0) in
  evict ();
  Engine.schedule_at eng
    ~time:(Engine.now eng + 2_000_000)
    (fun () ->
      Pax.set_col page ~slot:0 ~col:1 (Value.Str "modified-in-flight");
      Bufmgr.mark_dirty f);
  Scheduler.run_until_quiescent sched;
  check_int "the eviction wrote inline" 1 (Bufmgr.cleaner_stats pool).Bufmgr.dirty_evict_fallbacks;
  check_bool "re-dirtied frame stays resident" true (Bufmgr.is_resident f);
  check_bool "re-dirtied frame stays dirty" true (Bufmgr.is_dirty f);
  (* re-heat, then evict again: this write carries the second image *)
  ignore (Bufmgr.resolve pool s);
  age eng;
  evict ();
  Scheduler.run_until_quiescent sched;
  check_bool "evicted after the second write" false (Bufmgr.is_resident f);
  let f' = Bufmgr.resolve ~touch:false pool s in
  Alcotest.check value_eq "second write survived" (Value.Str "modified-in-flight")
    (Pax.get_col (Bufmgr.payload f') ~slot:0 ~col:1)

(* ------------------------------------------------------------------ *)
(* Scratch reuse (DESIGN.md §4h): reading through one reused row buffer
   must be indistinguishable from a fresh [get] — in value AND in the
   bytes the row encodes to — no matter what the previous probe left in
   the buffer. *)

let mixed_schema =
  Value.Schema.make
    [ ("id", Value.T_int); ("name", Value.T_str); ("score", Value.T_float); ("ok", Value.T_bool) ]

let random_row rng i =
  [|
    Value.Int i;
    (match Phoebe_util.Prng.int rng 4 with
    | 0 -> Value.Null
    | _ -> Value.Str (String.make (Phoebe_util.Prng.int rng 24) (Char.chr (97 + Phoebe_util.Prng.int rng 26))));
    Value.Float (float_of_int (Phoebe_util.Prng.int rng 1_000_000) /. 128.0);
    Value.Bool (Phoebe_util.Prng.bool rng);
  |]

let row_bytes row =
  let buf = Buffer.create 64 in
  Array.iter (Value.encode buf) row;
  Buffer.contents buf

let test_scratch_reuse_pax_frozen () =
  let rng = Phoebe_util.Prng.create ~seed:97 in
  let n = 200 in
  let page = Pax.create mixed_schema ~capacity:n in
  let rows = Array.init n (fun i -> random_row rng (i + 1)) in
  Array.iteri (fun i row -> ignore (Pax.append page ~row_id:(i + 1) row)) rows;
  let scratch = Array.make (Value.Schema.arity mixed_schema) Value.Null in
  for _ = 1 to 1000 do
    let slot = Phoebe_util.Prng.int rng n in
    Pax.get_into page ~slot scratch;
    let fresh = Pax.get page ~slot in
    Alcotest.(check string)
      "pax reused scratch is byte-identical to a fresh get" (row_bytes fresh) (row_bytes scratch)
  done;
  let block = Frozen.freeze [ page ] in
  for _ = 1 to 1000 do
    let rid = 1 + Phoebe_util.Prng.int rng n in
    Alcotest.(check bool) "frozen get_raw_into hits" true (Frozen.get_raw_into block ~row_id:rid scratch);
    Alcotest.(check string)
      "frozen reused scratch is byte-identical to the frozen row" (row_bytes rows.(rid - 1))
      (row_bytes scratch)
  done

(* Columnar reads re-box one [Value.t] constructor per column — that
   allocation is inherent. What scratch reuse removes is the fresh row
   array per probe: [get_into] must allocate strictly less than [get]
   over the same probe sequence, by at least the row-array footprint,
   and stay under a small per-probe constant (boxing only). *)
let measure_minor_words f =
  f () (* warm up: buffer growth, lazy tables *);
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_get_into_alloc_savings () =
  let rng = Phoebe_util.Prng.create ~seed:98 in
  let n = 64 and probes = 1000 in
  let page = Pax.create mixed_schema ~capacity:n in
  for i = 1 to n do
    ignore (Pax.append page ~row_id:i (random_row rng i))
  done;
  let slots = Array.init probes (fun _ -> Phoebe_util.Prng.int rng n) in
  let scratch = Array.make (Value.Schema.arity mixed_schema) Value.Null in
  let into () = Array.iter (fun slot -> Pax.get_into page ~slot scratch) slots in
  let fresh () =
    Array.iter (fun slot -> ignore (Sys.opaque_identity (Pax.get page ~slot))) slots
  in
  let dw_into = measure_minor_words into and dw_fresh = measure_minor_words fresh in
  let arity = Value.Schema.arity mixed_schema in
  if dw_fresh -. dw_into < float_of_int (probes * (arity + 1)) then
    Alcotest.failf "get_into saved only %.0f minor words over %d probes (fresh %.0f, into %.0f)"
      (dw_fresh -. dw_into) probes dw_fresh dw_into;
  if dw_into > float_of_int (probes * 12 * arity) then
    Alcotest.failf "get_into allocated %.0f minor words over %d probes — more than boxing alone"
      dw_into probes

(* Allocation pins for the read path (DESIGN.md §4h). An [Int64] the
   compiler fails to keep unboxed has no constructor for phoebe_check
   to see, so only a measured pin notices such an allocation. *)
let test_encode_key_allocates_nothing () =
  let ints = Array.init 1000 (fun i -> Value.Int ((i * 7919) - 3_000_000)) in
  let floats = Array.init 1000 (fun i -> Value.Float (float_of_int (i - 500) *. 0.37)) in
  let strs = Array.init 1000 (fun i -> Value.Str (Printf.sprintf "key\x00%d" i)) in
  let k = Keybuf.create () in
  Keybuf.add_string k (String.make (32 * 1024) '\x00');
  let encode_all vs () =
    Keybuf.clear k;
    for i = 0 to Array.length vs - 1 do
      Keybuf.add k vs.(i)
    done
  in
  check_int "Int keys: minor words" 0 (int_of_float (measure_minor_words (encode_all ints)));
  check_int "Float keys: minor words" 0 (int_of_float (measure_minor_words (encode_all floats)));
  check_int "Str keys: minor words" 0 (int_of_float (measure_minor_words (encode_all strs)))

(* The prefix scan's key match: an int or float boxed on the way to its
   8-byte comparison would show here. *)
let test_key_at_allocates_nothing () =
  let vals =
    Array.init 3000 (fun i ->
        match i mod 3 with
        | 0 -> Value.Int ((i * 7919) - 3_000_000)
        | 1 -> Value.Float (float_of_int (i - 500) *. 0.37)
        | _ -> Value.Str (Printf.sprintf "key\x00%d" i))
  in
  let keys = Array.map (fun v -> keybuf_of (key_bytes v)) vals in
  let match_all () =
    for i = 0 to Array.length vals - 1 do
      ignore (Sys.opaque_identity (Keybuf.value_at keys.(i) 0 vals.(i)))
    done
  in
  check_int "key_at: minor words" 0 (int_of_float (measure_minor_words match_all))

(* A stock-shaped table: (w, i) unique, two payload columns. *)
let stock_db ~rows =
  let module Db = Phoebe_core.Db in
  let db = Db.create { Phoebe_core.Config.default with Phoebe_core.Config.n_workers = 1 } in
  let t =
    Db.create_table db ~name:"stock"
      ~schema:[ ("w", Value.T_int); ("i", Value.T_int); ("qty", Value.T_int); ("dist", Value.T_str) ]
  in
  Db.create_index db t ~name:"stock_pk" ~cols:[ "w"; "i" ] ~unique:true;
  Db.with_txn db (fun txn ->
      for i = 1 to rows do
        ignore
          (Phoebe_core.Table.insert t txn
             [| Value.Int (1 + (i mod 2)); Value.Int i; Value.Int (i mod 90); Value.Str "dist-info" |])
      done);
  (db, t)

(* A warm point lookup allocates nothing: the key is built in the
   slot's probe and encoded into its bytes, and the located row, the
   result, and the int cells the projection decodes (w, i, qty, all
   below the shared-cell bound) are allocation-free. *)
let lookup_words_bound = 0

let test_index_lookup_first_alloc_pin () =
  let module Db = Phoebe_core.Db in
  let module Table = Phoebe_core.Table in
  let rows = 2000 and probes = 1000 in
  let db, t = stock_db ~rows in
  let ws = Array.init probes (fun k -> Value.Int (1 + (1 + (k * 37 mod rows)) mod 2)) in
  let is = Array.init probes (fun k -> Value.Int (1 + (k * 37 mod rows))) in
  let cols = Some [| 2 |] in
  Db.with_txn db (fun txn ->
      let hits = ref 0 in
      let probe () =
        for k = 0 to probes - 1 do
          let key = Table.key t txn |> Table.Key.add ws.(k) |> Table.Key.add is.(k) in
          if Table.index_lookup_first ?cols t txn ~index:"stock_pk" ~key > 0 then incr hits
        done
      in
      let words = measure_minor_words probe in
      check_int "every probe hits" (2 * probes) !hits;
      let per_hit = words /. float_of_int probes in
      if per_hit > float_of_int lookup_words_bound then
        Alcotest.failf "a warm index_lookup_first hit allocated %.2f words (bound %d)" per_hit
          lookup_words_bound)

(* A customer-shaped table for the by-name walk: (w, d, last, id), two
   ints then a last name; half of warehouse 1's rows are "BARBARBAR". *)
let by_name_db ~rows =
  let module Db = Phoebe_core.Db in
  let db = Db.create { Phoebe_core.Config.default with Phoebe_core.Config.n_workers = 1 } in
  let t =
    Db.create_table db ~name:"customer"
      ~schema:
        [ ("w", Value.T_int); ("d", Value.T_int); ("last", Value.T_str); ("id", Value.T_int); ("bal", Value.T_int) ]
  in
  Db.create_index db t ~name:"customer_by_name" ~cols:[ "w"; "d"; "last"; "id" ] ~unique:false;
  Db.with_txn db (fun txn ->
      for i = 1 to rows do
        let last = if i mod 4 < 2 then "BARBARBAR" else "OUGHTPRES" in
        ignore
          (Phoebe_core.Table.insert t txn
             [| Value.Int (1 + (i mod 2)); Value.Int 3; Value.Str last; Value.Int i; Value.Int (i mod 90) |])
      done);
  (db, t)

(* Reading a resident row through a prefix scan allocates nothing but
   its decoded string cells: the per-row words are the difference
   between 1,000 scans that read every row of the prefix and 1,000 that
   stop after its first, which share the per-scan cost. That cost, the
   scans of one row less that row's words, is bounded on its own: with
   the prefix built in the slot's probe and the callback built once, a
   scan builds no closure, key list or probe string, so 0 words per
   scan. Two inputs: stock's int prefix, whose rows decode only shared
   int cells (0 words per row), and the customer-by-name prefix, whose
   last name goes through [Keybuf.add]'s string branch as the
   probe is built, and whose rows decode the last-name key column into
   a fresh [Value.Str] cell ([Pax.get_cols_into]'s "decoded cell",
   2 words per row). *)
let prefix_scan_words_bound = 0
let str_cell_words = 2

let check_prefix_alloc ~what db t ~index ~cols ~prefix ~matches ~row_words =
  let module Db = Phoebe_core.Db in
  let module Table = Phoebe_core.Table in
  let scans = 1000 and cols = Some cols in
  Db.with_txn db (fun txn ->
      let visited = ref 0 in
      let all _ _ =
        incr visited;
        true
      and first _ _ =
        incr visited;
        false
      in
      let scan f () =
        for _ = 1 to scans do
          Table.index_prefix ?cols t txn ~index ~prefix:(prefix t txn) f
        done
      in
      let words_all = measure_minor_words (scan all) in
      check_int (what ^ ": the prefix visits its rows, twice per measure") (2 * scans * matches) !visited;
      let words_first = measure_minor_words (scan first) in
      let per_row = (words_all -. words_first) /. float_of_int (scans * (matches - 1)) in
      if per_row > float_of_int row_words then
        Alcotest.failf "%s: index_prefix allocated %.2f words per resident row (bound %d)" what per_row
          row_words;
      let per_scan = (words_first /. float_of_int scans) -. per_row in
      if per_scan > float_of_int prefix_scan_words_bound then
        Alcotest.failf "%s: index_prefix allocated %.2f words per scan, less its row (bound %d)" what
          per_scan prefix_scan_words_bound)

let test_index_prefix_alloc_pin () =
  let module Table = Phoebe_core.Table in
  let rows = 200 in
  let db, t = stock_db ~rows in
  let w = Value.Int 1 in
  check_prefix_alloc ~what:"stock (w)" db t ~index:"stock_pk" ~cols:[| 2 |]
    ~prefix:(fun t txn -> Table.key t txn |> Table.Key.add w)
    ~matches:(rows / 2) ~row_words:0;
  let db, t = by_name_db ~rows in
  let d = Value.Int 3 and last = Value.Str "BARBARBAR" in
  check_prefix_alloc ~what:"customer (w, d, last)" db t ~index:"customer_by_name" ~cols:[| 4 |]
    ~prefix:(fun t txn -> Table.key t txn |> Table.Key.add w |> Table.Key.add d |> Table.Key.add last)
    ~matches:(rows / 4) ~row_words:str_cell_words

(* A statement started inside a prefix callback on the same table and
   slot takes a probe of its own, so the walk it runs in keeps its
   prefix: every outer row is visited once, in key order, while each
   callback runs a point lookup and a nested prefix walk of the other
   warehouse, and the first one also a walk over the outer probe itself
   with a point lookup inside it, two walks deep. *)
let test_index_prefix_nesting () =
  let module Db = Phoebe_core.Db in
  let module Table = Phoebe_core.Table in
  let rows = 40 in
  let db, t = stock_db ~rows in
  let int_of = function Value.Int n -> n | _ -> Alcotest.fail "int cell expected" in
  Db.with_txn db (fun txn ->
      let outer = Table.key t txn |> Table.Key.add (Value.Int 1) in
      let seen = ref [] and inner_rows = ref 0 and again = ref 0 in
      Table.index_prefix t txn ~index:"stock_pk" ~prefix:outer (fun _ row ->
          let i = int_of row.(1) in
          seen := i :: !seen;
          (* before any probe at depth 1 exists, the walk over the outer
             probe raises the depth to 2, where the lookup takes one *)
          if i = 2 then
            Table.index_prefix t txn ~index:"stock_pk" ~prefix:outer (fun _ _ ->
                incr again;
                let key = Table.key t txn |> Table.Key.add (Value.Int 2) |> Table.Key.add (Value.Int 1) in
                if Table.index_lookup_first t txn ~index:"stock_pk" ~key = 0 then
                  Alcotest.fail "lookup nested two walks deep missed";
                true);
          let key = Table.key t txn |> Table.Key.add (Value.Int 2) |> Table.Key.add (Value.Int (i + 1)) in
          if Table.index_lookup_first t txn ~index:"stock_pk" ~key = 0 && i < rows then
            Alcotest.failf "nested lookup of (2, %d) missed" (i + 1);
          Table.index_prefix t txn ~index:"stock_pk" ~prefix:(Table.key t txn |> Table.Key.add (Value.Int 2))
            (fun _ _ ->
              incr inner_rows;
              true);
          true);
      let expected = List.init (rows / 2) (fun k -> 2 * (k + 1)) in
      Alcotest.(check (list int)) "outer walk intact" expected (List.rev !seen);
      check_int "every nested walk saw warehouse 2" (rows / 2 * (rows / 2)) !inner_rows;
      check_int "a walk over the outer probe, nested in its own walk" (rows / 2) !again;
      (* after the walks, the slot is back at depth 0: a probe built now
         is the outer one *)
      let k = Table.key t txn |> Table.Key.add (Value.Int 1) |> Table.Key.add (Value.Int 4) in
      check_bool "probe depth restored" true (k == outer))

(* [found_row] survives subsequent reads and updates until the slot's
   next lookup on the table: more reads than the slot's ring holds (point
   reads and a prefix walk) and an update of another row leave the hit's
   cells in place, so the found row is never a ring row. *)
let test_found_row_survives_reads () =
  let module Db = Phoebe_core.Db in
  let module Table = Phoebe_core.Table in
  let db, t = stock_db ~rows:40 in
  let hit = [| Value.Int 2; Value.Int 7; Value.Int 7; Value.Str "dist-info" |] in
  let holds what row = check_bool what true (Array.for_all2 Value.equal hit row) in
  Db.with_txn db (fun txn ->
      let key = Table.key t txn |> Table.Key.add (Value.Int 2) |> Table.Key.add (Value.Int 7) in
      let rid = Table.index_lookup_first t txn ~index:"stock_pk" ~key in
      check_bool "the lookup hits" true (rid > 0);
      let found = Table.found_row t txn in
      holds "found_row is the hit" found;
      for r = 1 to 6 do
        ignore (Table.get t txn ~rid:(if r = rid then r + 10 else r))
      done;
      Table.index_prefix t txn ~index:"stock_pk" ~prefix:(Table.key t txn |> Table.Key.add (Value.Int 1))
        (fun _ _ -> true);
      let other = if rid = 1 then 2 else 1 in
      check_bool "another row updated" true
        (Table.update t txn ~rid:other (fun _ -> [| (2, Value.Int 99) |]));
      holds "found_row after 6 reads, a walk and an update" found;
      check_bool "still the slot's found row" true (Table.found_row t txn == found))

(* A probe is refused by a statement on another table or in another
   slot: it is checked against the statement's own slot context before
   anything is read. *)
let test_foreign_probe_refused () =
  let module Db = Phoebe_core.Db in
  let module Table = Phoebe_core.Table in
  let db, t = stock_db ~rows:10 in
  let other = Db.create_table db ~name:"other" ~schema:[ ("w", Value.T_int); ("i", Value.T_int) ] in
  Db.create_index db other ~name:"other_pk" ~cols:[ "w"; "i" ] ~unique:true;
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  Db.with_txn db (fun txn ->
      let elsewhere = { txn with Phoebe_txn.Txnmgr.slot = txn.Phoebe_txn.Txnmgr.slot + 1 } in
      List.iter
        (fun (what, probe) ->
          refused (what ^ ", index_lookup_first") (fun () ->
              ignore (Table.index_lookup_first t txn ~index:"stock_pk" ~key:(probe ())));
          refused (what ^ ", index_prefix") (fun () ->
              Table.index_prefix t txn ~index:"stock_pk" ~prefix:(probe ()) (fun _ _ -> true)))
        [
          ("another table's probe", fun () -> Table.key other txn |> Table.Key.add (Value.Int 2));
          ("another slot's probe", fun () -> Table.key t elsewhere |> Table.Key.add (Value.Int 2));
        ];
      let own = Table.key t txn |> Table.Key.add (Value.Int 1) |> Table.Key.add (Value.Int 4) in
      check_bool "the slot's own probe is taken" true
        (Table.index_lookup_first t txn ~index:"stock_pk" ~key:own > 0))

(* Locating a resident row allocates nothing: the slot comes back as an
   int and the frame stays in the tree. *)
let test_locate_allocates_nothing () =
  let module Table = Phoebe_core.Table in
  let rows = 1000 in
  let _, t = stock_db ~rows in
  let tree = Table.tree t in
  let slots = ref 0 in
  let locate_all () =
    for rid = 1 to rows do
      if Phoebe_btree.Table_tree.locate tree ~row_id:rid >= 0 then incr slots
    done
  in
  check_int "locate: minor words" 0 (int_of_float (measure_minor_words locate_all));
  check_int "every row is in a leaf, twice" (2 * rows) !slots

(* Allocation pins for the write path (DESIGN.md §4h), each bound
   measured when the write path lost its per-write copies. *)

(* Per-update words of a warm non-key [Table.update] with a one-column
   read: the closure and the pair array it returns with its boxed value,
   the undo entry (a fresh one inside a long transaction) with its
   before-image and chain-head cell, the redo record and its op, and the
   WAL buffer's amortised growth. Measured 55.0 when each locate still
   built its location; the bound keeps ~12% headroom. *)
let update_words_bound = 62

let test_update_alloc_pin () =
  let module Db = Phoebe_core.Db in
  let module Table = Phoebe_core.Table in
  let rows = 2000 and updates = 500 in
  let db, t = stock_db ~rows in
  let qty = Table.col t "qty" in
  let reads = [| qty |] in
  let rids =
    Db.with_txn db (fun txn ->
        Array.init updates (fun k ->
            let i = 1 + (k * 37 mod rows) in
            let key = Table.key t txn |> Table.Key.add (Value.Int (1 + (i mod 2))) |> Table.Key.add (Value.Int i) in
            match Table.index_lookup_first t txn ~index:"stock_pk" ~key with
            | 0 -> Alcotest.fail "stock row missing"
            | rid -> rid))
  in
  Db.with_txn db (fun txn ->
      let bump () =
        for k = 0 to updates - 1 do
          ignore
            (Table.update ~reads t txn ~rid:rids.(k) (fun row ->
                 match row.(qty) with Value.Int q -> [| (qty, Value.Int (q + 1)) |] | _ -> [||]))
        done
      in
      let per_update = measure_minor_words bump /. float_of_int updates in
      if per_update > float_of_int update_words_bound then
        Alcotest.failf "a warm non-key Table.update allocated %.1f words (bound %d)" per_update
          update_words_bound)

(* Per-insert words into a table with one unique index: the row array
   and its boxed cells, the append hook and its latch closure, the undo
   entry and chain-head cell, the new row's twin entry and wait queue,
   the redo record, the key string, the index tree's descent, and the
   leaves' share of splits; the unique check's equal-key walk allocates
   nothing. Measured 106.9; the bound keeps ~12% headroom. *)
let insert_words_bound = 120

let test_insert_alloc_pin () =
  let module Db = Phoebe_core.Db in
  let module Table = Phoebe_core.Table in
  let inserts = 500 in
  let db, t = stock_db ~rows:10 in
  let next = ref 1_000 in
  Db.with_txn db (fun txn ->
      let add () =
        for _ = 1 to inserts do
          incr next;
          ignore (Table.insert t txn [| Value.Int 3; Value.Int !next; Value.Int 7; Value.Str "dist-info" |])
        done
      in
      let per_insert = measure_minor_words add /. float_of_int inserts in
      if per_insert > float_of_int insert_words_bound then
        Alcotest.failf "a Table.insert allocated %.1f words (bound %d)" per_insert insert_words_bound)

(* One WAL flush: the completion closure, the device extent and its
   scheduled completion. The bytes are blitted into the log, not copied
   out: the test checks that the buffer is large enough for a copy
   alone to break the bound. Measured 92; the bound keeps ~12%
   headroom. *)
let flush_words_bound = 104

let test_wal_flush_alloc_pin () =
  let module Wal = Phoebe_wal.Wal in
  let module Record = Phoebe_wal.Record in
  let module Walstore = Phoebe_io.Walstore in
  let eng = Engine.create () in
  let store = Walstore.create (Device.create eng ~name:"wal" Device.pm9a3) in
  let wal = Wal.create eng ~store ~n_slots:1 Wal.default_config in
  let gsn = ref 0 in
  let flush_once () =
    for rid = 1 to 40 do
      incr gsn;
      ignore
        (Wal.append wal ~slot:0
           (Record.Update { table = 1; rid; cols = [| (2, Value.Int rid); (3, Value.Str "0123456789") |] })
           ~gsn:!gsn)
    done;
    let bytes = Wal.total_bytes wal - Wal.total_durable_bytes wal in
    let w0 = Gc.minor_words () in
    Wal.flush_all wal ~on_done:ignore;
    let words = Gc.minor_words () -. w0 in
    Engine.run eng;
    (bytes, words)
  in
  ignore (flush_once ()) (* warm up: buffer and chunk growth *);
  let bytes, words = flush_once () in
  check_bool "the flush reached the log" true (Wal.flushed_lsn wal ~slot:0 = 79);
  check_bool "a copy of the flushed bytes alone would break the bound" true
    (bytes / 8 > flush_words_bound);
  if words > float_of_int flush_words_bound then
    Alcotest.failf "one WAL flush allocated %.0f words (bound %d)" words flush_words_bound

(* ------------------------------------------------------------------ *)
(* On-disk formats *)

(* A page with every column type, a null, a delete mark and a page GSN
   past one varint byte. The device
   model charges by image size, so a format change would move every
   fixed-seed result: the encoded bytes are pinned, not just
   round-tripped. *)
let golden_page () =
  let schema =
    Value.Schema.make
      [ ("id", Value.T_int); ("price", Value.T_float); ("name", Value.T_str); ("ok", Value.T_bool) ]
  in
  let p = Pax.create schema ~capacity:8 in
  List.iter
    (fun (rid, id, price, name, ok) ->
      ignore (Pax.append p ~row_id:rid [| Value.Int id; price; Value.Str name; Value.Bool ok |]))
    [
      (3, 7, Value.Float 1.5, "ab", true);
      (5, -2, Value.Null, "ab", false);
      (9, 300, Value.Float (-0.25), "xyz", true);
      (12, 301, Value.Float 2.0, "ab", false);
    ];
  Pax.mark_deleted p ~slot:1;
  Pax.set_gsn p 300;
  p

let golden_pax =
  "91f7bed0040804ac02040269646905707269636566046e616d6573026f6b620300050109000c00010e010301d80401da0402000000000000f83f0002000000000000d0bf0200000000000000400302616203026162030378797a030261620401040004010400"

let golden_frozen =
  "f2e6f0c70a03040269646905707269636566046e616d6573026f6b6203090c02000000004064040eca04026618000000000000f83f000000000000d0bf000000000000004044020261620378797a000100420103"

let hex b =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))

let unhex s =
  Bytes.init (String.length s / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let test_golden_bytes () =
  let p = golden_page () in
  Alcotest.(check string) "pax page image" golden_pax (hex (Pax.encode p));
  Alcotest.(check string) "pax decode re-encodes" golden_pax
    (hex (Pax.encode (Pax.decode (unhex golden_pax))));
  let f = Frozen.freeze [ p ] in
  ignore (Frozen.mark_deleted f ~row_id:9);
  Alcotest.(check string) "frozen block image" golden_frozen (hex (Frozen.encode f));
  Alcotest.(check string) "frozen decode re-encodes" golden_frozen
    (hex (Frozen.encode (Frozen.decode (unhex golden_frozen))))

let test_schema_rejects_unknown_tag () =
  let buf = Buffer.create 16 in
  Value.Schema.write buf (Value.Schema.make [ ("k", Value.T_int) ]);
  let b = Buffer.to_bytes buf in
  let s, off = Value.Schema.read b 0 in
  check_int "read back" 1 (Value.Schema.arity s);
  check_int "consumed" (Bytes.length b) off;
  Bytes.set b (Bytes.length b - 1) 'x';
  check_bool "unknown tag rejected" true
    (try
       ignore (Value.Schema.read b 0);
       false
     with Failure _ -> true)

let test_unseal_rejects_flipped_byte () =
  let body = Buffer.create 16 in
  Buffer.add_string body "page body";
  let image = Crc32.seal body in
  let off = Crc32.unseal image in
  Alcotest.(check string) "body follows the checksum" "page body"
    (Bytes.sub_string image off (Bytes.length image - off));
  Bytes.set image off 'P';
  check_bool "flipped body byte rejected" true
    (try
       ignore (Crc32.unseal image);
       false
     with Failure _ -> true)

(* The sealed image is the one allocation of [Crc32.seal]: the body is
   staged in a reused scratch, not copied out of the buffer first. A
   1,000-byte body keeps both candidates on the minor heap. *)
let test_seal_allocates_only_the_image () =
  let body = Buffer.create 1024 in
  Buffer.add_string body (String.init 1000 (fun i -> Char.chr (i land 0xff)));
  let image = ref Bytes.empty in
  let words = measure_minor_words (fun () -> image := Crc32.seal body) in
  let image_words = 1 + ((Bytes.length !image + 8) / 8) in
  check_bool
    (Printf.sprintf "seal allocated %.0f minor words for a %d-word image" words image_words)
    true
    (int_of_float words <= image_words);
  Alcotest.(check string) "image body" (Buffer.contents body)
    (Bytes.sub_string !image (Crc32.unseal !image) 1000)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "phoebe_storage"
    [
      ( "value",
        Alcotest.test_case "compare" `Quick test_value_compare
        :: Alcotest.test_case "roundtrip examples" `Quick test_value_roundtrip
        :: Alcotest.test_case "schema" `Quick test_schema
        :: Alcotest.test_case "float to_string exact" `Quick test_float_to_string_roundtrip
        :: Alcotest.test_case "key_at agrees with encode_key" `Quick test_key_at_agrees
        :: Alcotest.test_case "key_at rejects altered keys" `Quick test_key_at_rejects
        :: qsuite
             [
               prop_value_roundtrip;
               prop_float_to_string_roundtrip;
               prop_key_encoding_order;
               prop_key_at_agrees;
               prop_compare_key_is_string_compare;
               prop_of_int_agrees;
             ] );
      ( "pax",
        Alcotest.test_case "append/get" `Quick test_pax_append_get
        :: Alcotest.test_case "find matches bisection" `Quick test_pax_find_matches_bisect
        :: Alcotest.test_case "ordering enforced" `Quick test_pax_ordering_enforced
        :: Alcotest.test_case "full page" `Quick test_pax_full
        :: Alcotest.test_case "update/delete/compact" `Quick test_pax_update_delete_compact
        :: Alcotest.test_case "nulls" `Quick test_pax_null_handling
        :: Alcotest.test_case "codec roundtrip" `Quick test_pax_codec_roundtrip
        :: Alcotest.test_case "corruption detected" `Quick test_pax_codec_detects_corruption
        :: Alcotest.test_case "mistyped cell rejected" `Quick test_pax_decode_rejects_mistyped_cell
        :: qsuite [ prop_pax_roundtrip; prop_pax_codec_byte_identity ] );
      ( "frozen",
        Alcotest.test_case "basics" `Quick test_frozen_basics
        :: Alcotest.test_case "skips deleted" `Quick test_frozen_skips_deleted_on_freeze
        :: Alcotest.test_case "out-of-place delete" `Quick test_frozen_out_of_place_delete
        :: Alcotest.test_case "compression" `Quick test_frozen_compresses_repetitive_data
        :: Alcotest.test_case "codec roundtrip" `Quick test_frozen_codec_roundtrip
        :: qsuite [ prop_frozen_roundtrip ] );
      ( "formats",
        [
          Alcotest.test_case "golden bytes" `Quick test_golden_bytes;
          Alcotest.test_case "schema rejects unknown tag" `Quick test_schema_rejects_unknown_tag;
          Alcotest.test_case "unseal rejects flipped byte" `Quick test_unseal_rejects_flipped_byte;
          Alcotest.test_case "seal allocates only the image" `Quick
            test_seal_allocates_only_the_image;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "pax/frozen reuse byte-identical" `Quick test_scratch_reuse_pax_frozen;
          Alcotest.test_case "get_into saves the row allocation" `Quick test_get_into_alloc_savings;
          Alcotest.test_case "encode_key allocates nothing" `Quick
            test_encode_key_allocates_nothing;
          Alcotest.test_case "key_at allocates nothing" `Quick test_key_at_allocates_nothing;
          Alcotest.test_case "warm index_lookup_first hit allocation pin" `Quick
            test_index_lookup_first_alloc_pin;
          Alcotest.test_case "index_prefix per-row allocation pin" `Quick test_index_prefix_alloc_pin;
          Alcotest.test_case "a statement nested in a prefix walk keeps the walk's probe" `Quick
            test_index_prefix_nesting;
          Alcotest.test_case "found_row survives reads and updates" `Quick
            test_found_row_survives_reads;
          Alcotest.test_case "a foreign probe is refused" `Quick test_foreign_probe_refused;
          Alcotest.test_case "resident locate allocates nothing" `Quick test_locate_allocates_nothing;
          Alcotest.test_case "warm non-key update allocation pin" `Quick test_update_alloc_pin;
          Alcotest.test_case "insert allocation pin" `Quick test_insert_alloc_pin;
          Alcotest.test_case "WAL flush allocation pin" `Quick test_wal_flush_alloc_pin;
        ] );
      ( "latch",
        [
          Alcotest.test_case "modes" `Quick test_latch_modes;
          Alcotest.test_case "optimistic read" `Quick test_latch_optimistic_read;
          Alcotest.test_case "exception safety" `Quick test_latch_with_exclusive_exception_safe;
        ] );
      ( "bufmgr",
        [
          Alcotest.test_case "alloc/resolve" `Quick test_buf_alloc_resolve;
          Alcotest.test_case "eviction + fault" `Quick test_buf_eviction_and_fault;
          Alcotest.test_case "second chance" `Quick test_buf_second_chance;
          Alcotest.test_case "pin blocks eviction" `Quick test_buf_pin_blocks_eviction;
          Alcotest.test_case "dirty writeback" `Quick test_buf_dirty_writeback_roundtrip;
          Alcotest.test_case "gsn survives eviction" `Quick test_buf_gsn_survives_eviction;
          Alcotest.test_case "accounting returns to zero" `Quick test_buf_accounting_returns_to_zero;
          Alcotest.test_case "cleaner batches writes" `Quick test_buf_cleaner_batches_writes;
          Alcotest.test_case "cleaner coalesces in-flight re-dirty" `Quick
            test_buf_cleaner_coalesces_inflight_redirty;
          Alcotest.test_case "stale cooling entry skipped" `Quick test_buf_stale_cooling_entry;
          Alcotest.test_case "inline write-back keeps re-dirty" `Quick
            test_buf_inline_writeback_redirty;
        ] );
    ]
