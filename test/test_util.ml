(* Unit and property tests for phoebe_util. *)
open Phoebe_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  check_bool "different seeds differ" false (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_int_bounds () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_incl () =
  let rng = Prng.create ~seed:9 in
  let seen = Array.make 5 false in
  for _ = 1 to 1_000 do
    let v = Prng.int_incl rng 3 7 in
    check_bool "in range" true (v >= 3 && v <= 7);
    seen.(v - 3) <- true
  done;
  check_bool "all values hit" true (Array.for_all Fun.id seen)

let test_prng_split_independent () =
  let a = Prng.create ~seed:5 in
  let b = Prng.split a in
  check_bool "split streams differ" false (Prng.next_int64 a = Prng.next_int64 b)

let test_prng_strings () =
  let rng = Prng.create ~seed:3 in
  let s = Prng.alpha_string rng ~min_len:4 ~max_len:12 in
  check_bool "length" true (String.length s >= 4 && String.length s <= 12);
  let n = Prng.numeric_string rng ~len:8 in
  check_int "numeric length" 8 (String.length n);
  String.iter (fun c -> check_bool "digit" true (c >= '0' && c <= '9')) n

let test_prng_shuffle_permutation () =
  let rng = Prng.create ~seed:11 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* Golden outputs: every fixed-seed result in the repository depends on
   the generator drawing exactly these numbers. *)
let golden_seed42 =
  [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L; -1389169964527427423L;
    -151191095644234140L; -4247557243643801032L; -5178765164775350862L; -2766855848391737209L ]

let golden_split42 =
  [ -8150312660505607085L; 1184342940732292706L; 8258043193327897829L; -7937530469794552443L;
    4090181005887697149L; -2072551135223332111L; 3558450685933495791L; -5406025633808992172L ]

let draws n f = List.init n (fun _ -> f ())

let test_prng_golden () =
  let a = Prng.create ~seed:42 in
  Alcotest.(check (list int64)) "seed 42" golden_seed42 (draws 8 (fun () -> Prng.next_int64 a));
  let b = Prng.split (Prng.create ~seed:42) in
  Alcotest.(check (list int64)) "split of seed 42" golden_split42 (draws 8 (fun () -> Prng.next_int64 b));
  let a = Prng.create ~seed:42 in
  Alcotest.(check (list int)) "int" [ 685; 775; 752; 48; 369; 646; 188; 601 ] (draws 8 (fun () -> Prng.int a 1000));
  Alcotest.(check (list string)) "float"
    [ "0x1.85d2dce4dd2ecp-1"; "0x1.2aacc2beeebf7p-1"; "0x1.5d6a766818207p-1"; "0x1.29a76e61cebe2p-2";
      "0x1.9a1fdb52600d8p-1"; "0x1.4920219692d08p-2"; "0x1.6c1bd877e5b1p-1"; "0x1.c16ab4d172ccep-1" ]
    (draws 8 (fun () -> Printf.sprintf "%h" (Prng.float a 1.0)));
  Alcotest.(check (list bool)) "bool" [ true; false; true; false; true; true; true; true ]
    (draws 8 (fun () -> Prng.bool a));
  Alcotest.(check (list int)) "int_incl" [ -2; 5; 5; 0; -1; 2; -1; 2 ] (draws 8 (fun () -> Prng.int_incl a (-5) 5))

let test_prng_alloc_free () =
  let rng = Prng.create ~seed:42 in
  let sink = ref 0 in
  let exercise n =
    for i = 1 to n do
      sink := !sink + Prng.int rng (i + 1) + Prng.int_incl rng (-i) i
    done
  in
  exercise 100;
  let w0 = Gc.minor_words () in
  exercise 10_000;
  let words = int_of_float (Gc.minor_words () -. w0) in
  check_int "minor words for 10k int + int_incl draws" 0 words

(* ------------------------------------------------------------------ *)
(* Zipf *)

let test_zipf_range () =
  let rng = Prng.create ~seed:1 in
  let z = Zipf.create ~n:100 () in
  for _ = 1 to 10_000 do
    let v = Zipf.sample z rng in
    check_bool "in range" true (v >= 0 && v < 100)
  done

let test_zipf_skew () =
  let rng = Prng.create ~seed:1 in
  let z = Zipf.create ~theta:0.99 ~n:1000 () in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let v = Zipf.sample z rng in
    counts.(v) <- counts.(v) + 1
  done;
  (* Item 0 must be far more popular than the median item. *)
  check_bool "head heavier than tail" true (counts.(0) > 20 * (max 1 counts.(500)))

let test_nurand_range () =
  let rng = Prng.create ~seed:2 in
  for _ = 1 to 10_000 do
    let v = Zipf.nurand rng ~a:255 ~c:37 ~x:0 ~y:999 in
    check_bool "in [0,999]" true (v >= 0 && v <= 999)
  done

(* ------------------------------------------------------------------ *)
(* Varint *)

let roundtrip_int v =
  let buf = Buffer.create 16 in
  Varint.write_int buf v;
  let got, off = Varint.read_int (Buffer.to_bytes buf) 0 in
  got = v && off = Buffer.length buf

let roundtrip_int64 v =
  let buf = Buffer.create 16 in
  Varint.write_int64 buf v;
  let got, _ = Varint.read_int64 (Buffer.to_bytes buf) 0 in
  got = v

let test_varint_examples () =
  List.iter
    (fun v -> check_bool (string_of_int v) true (roundtrip_int v))
    [ 0; 1; -1; 127; 128; -128; 300; -300; max_int / 2; -(max_int / 2); max_int; min_int + 1 ]

let test_varint_string () =
  let buf = Buffer.create 16 in
  Varint.write_string buf "hello";
  Varint.write_string buf "";
  Varint.write_string buf (String.make 300 'x');
  let b = Buffer.to_bytes buf in
  let s1, off = Varint.read_string b 0 in
  let s2, off = Varint.read_string b off in
  let s3, _ = Varint.read_string b off in
  Alcotest.(check string) "s1" "hello" s1;
  Alcotest.(check string) "s2" "" s2;
  check_int "s3 length" 300 (String.length s3)

let test_varint_float () =
  let buf = Buffer.create 16 in
  List.iter (Varint.write_float buf) [ 0.0; 1.5; -3.25; 1e300; Float.min_float ];
  let b = Buffer.to_bytes buf in
  let v1, off = Varint.read_float b 0 in
  let v2, off = Varint.read_float b off in
  let v3, off = Varint.read_float b off in
  let v4, off = Varint.read_float b off in
  let v5, _ = Varint.read_float b off in
  Alcotest.(check (float 0.0)) "0" 0.0 v1;
  Alcotest.(check (float 0.0)) "1.5" 1.5 v2;
  Alcotest.(check (float 0.0)) "-3.25" (-3.25) v3;
  Alcotest.(check (float 0.0)) "1e300" 1e300 v4;
  Alcotest.(check (float 0.0)) "min_float" Float.min_float v5

let test_varint_overrun () =
  Alcotest.check_raises "overrun raises" (Failure "Varint.read_uint: overrun") (fun () ->
      ignore (Varint.read_uint (Bytes.of_string "\xff") 0))

let prop_varint_int =
  QCheck.Test.make ~name:"varint int roundtrip" ~count:1000 QCheck.int roundtrip_int

let prop_varint_int64 =
  QCheck.Test.make ~name:"varint int64 roundtrip" ~count:1000 QCheck.int64 roundtrip_int64

let prop_varint_string =
  QCheck.Test.make ~name:"varint string roundtrip" ~count:500 QCheck.string (fun s ->
      let buf = Buffer.create 16 in
      Varint.write_string buf s;
      let got, _ = Varint.read_string (Buffer.to_bytes buf) 0 in
      got = s)

(* ------------------------------------------------------------------ *)
(* Crc32 *)

let test_crc32_known () =
  (* Standard check value for "123456789". *)
  check_int "check vector" 0xCBF43926 (Crc32.string "123456789")

let test_crc32_distinguishes () =
  check_bool "different inputs differ" false (Crc32.string "abc" = Crc32.string "abd")

let test_crc32_range () =
  let buf = Bytes.of_string "hello world, this is a checksum range test" in
  let whole = Crc32.bytes buf ~pos:0 ~len:(Bytes.length buf) in
  let sub = Crc32.bytes buf ~pos:5 ~len:10 in
  check_bool "sub range differs" false (whole = sub)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_scalar () =
  let s = Stats.Scalar.create () in
  List.iter (Stats.Scalar.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Stats.Scalar.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.Scalar.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Scalar.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.Scalar.max s);
  Alcotest.(check (float 1e-6)) "stddev" 1.29099444874 (Stats.Scalar.stddev s)

let test_histogram_percentiles () =
  let h = Stats.Histogram.create () in
  for i = 1 to 1000 do
    Stats.Histogram.add h i
  done;
  check_int "count" 1000 (Stats.Histogram.count h);
  let p50 = Stats.Histogram.percentile h 0.5 in
  let p99 = Stats.Histogram.percentile h 0.99 in
  check_bool "p50 approx" true (p50 > 300.0 && p50 < 800.0);
  check_bool "p99 approx" true (p99 > 700.0 && p99 <= 1300.0);
  check_bool "ordering" true (p50 <= p99)

let test_series_buckets () =
  let s = Stats.Series.create ~bucket_width:1_000_000_000 in
  Stats.Series.add s ~time:100 1.0;
  Stats.Series.add s ~time:500 2.0;
  Stats.Series.add s ~time:1_500_000_000 5.0;
  Stats.Series.add s ~time:3_200_000_000 7.0;
  match Stats.Series.buckets s with
  | [ (t0, v0); (t1, v1); (t2, v2); (t3, v3) ] ->
    check_int "t0" 0 t0;
    Alcotest.(check (float 0.0)) "v0" 3.0 v0;
    check_int "t1" 1_000_000_000 t1;
    Alcotest.(check (float 0.0)) "v1" 5.0 v1;
    check_int "t2 gap" 2_000_000_000 t2;
    Alcotest.(check (float 0.0)) "v2 gap" 0.0 v2;
    check_int "t3" 3_000_000_000 t3;
    Alcotest.(check (float 0.0)) "v3" 7.0 v3
  | l -> Alcotest.failf "expected 4 buckets, got %d" (List.length l)

let test_scalar_empty () =
  let s = Stats.Scalar.create () in
  check_bool "is_empty" true (Stats.Scalar.is_empty s);
  Alcotest.(check (float 0.0)) "empty min" 0.0 (Stats.Scalar.min s);
  Alcotest.(check (float 0.0)) "empty max" 0.0 (Stats.Scalar.max s);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Stats.Scalar.mean s);
  Stats.Scalar.add s (-2.5);
  check_bool "not empty" false (Stats.Scalar.is_empty s);
  Alcotest.(check (float 0.0)) "min tracks negative" (-2.5) (Stats.Scalar.min s);
  Alcotest.(check (float 0.0)) "max tracks negative" (-2.5) (Stats.Scalar.max s)

let test_histogram_empty_and_single () =
  let h = Stats.Histogram.create () in
  check_int "empty count" 0 (Stats.Histogram.count h);
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Stats.Histogram.percentile h 0.5);
  Alcotest.(check (float 0.0)) "empty p99" 0.0 (Stats.Histogram.percentile h 0.99);
  Alcotest.(check (float 0.0)) "empty mean" 0.0 (Stats.Histogram.mean h);
  Stats.Histogram.add h 1000;
  check_int "single count" 1 (Stats.Histogram.count h);
  Alcotest.(check (float 0.0)) "single sum" 1000.0 (Stats.Histogram.sum h);
  (* every percentile of a single-sample histogram is that sample's
     bucket value, within one pseudo-log step (2^0.25) *)
  List.iter
    (fun p ->
      let v = Stats.Histogram.percentile h p in
      check_bool "single-sample percentile near sample" true (v > 700.0 && v < 1500.0))
    [ 0.0; 0.5; 0.9; 0.99 ]

let test_histogram_monotone_in_p () =
  let h = Stats.Histogram.create () in
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 5000 do
    Stats.Histogram.add h (1 + Prng.int rng 1_000_000)
  done;
  let ps = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 0.999; 1.0 ] in
  let vs = List.map (Stats.Histogram.percentile h) ps in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
      check_bool "percentile monotone in p" true (a <= b);
      pairs rest
    | _ -> ()
  in
  pairs vs

let test_histogram_bucket_roundtrip () =
  (* value_of (bucket_of v) must land within one pseudo-log step
     (factor 2^(1/4)) of v, and bucket_of must be monotone. *)
  let step = Float.pow 2.0 0.25 in
  List.iter
    (fun v ->
      let b = Stats.Histogram.bucket_of v in
      let back = Stats.Histogram.value_of b in
      check_bool
        (Printf.sprintf "roundtrip %d -> bucket %d -> %.1f" v b back)
        true
        (back <= float_of_int v *. step +. 1e-9 && back >= float_of_int v /. step -. 1e-9))
    [ 1; 2; 3; 4; 7; 8; 15; 16; 17; 1000; 65536; 1_000_000; 1_000_000_000 ];
  check_int "non-positive clamps to 0" 0 (Stats.Histogram.bucket_of 0);
  check_int "negative clamps to 0" 0 (Stats.Histogram.bucket_of (-5));
  let rec mono prev = function
    | [] -> ()
    | v :: rest ->
      let b = Stats.Histogram.bucket_of v in
      check_bool "bucket_of monotone" true (b >= prev);
      mono b rest
  in
  mono 0 [ 1; 2; 5; 10; 100; 1_000; 10_000; 1_000_000 ]

(* ------------------------------------------------------------------ *)
(* Json *)

module Json = Phoebe_util.Json

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("n", Json.Int (-42));
        ("x", Json.Float 1.5);
        ("big", Json.Float 1.25e18);
        ("s", Json.Str "a \"quoted\" line\nwith\ttabs and \x01 ctrl");
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
        ("nested", Json.List [ Json.Int 1; Json.List [ Json.Str "deep" ]; Json.Obj [ ("k", Json.Int 2) ] ]);
      ]
  in
  match Json.of_string (Json.to_string doc) with
  | Error msg -> Alcotest.failf "emitted JSON failed to parse: %s" msg
  | Ok parsed -> check_bool "round-trip equal" true (parsed = doc)

let test_json_nonfinite () =
  (* inf/-inf/nan have no JSON representation: they must emit as null,
     and the result must still parse. *)
  let doc =
    Json.Obj
      [ ("pos", Json.Float infinity); ("neg", Json.Float neg_infinity); ("nn", Json.Float Float.nan) ]
  in
  let text = Json.to_string doc in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "no inf token" false (contains text "inf");
  check_bool "no nan token" false (contains text "nan");
  match Json.of_string text with
  | Error msg -> Alcotest.failf "non-finite emission failed to parse: %s" msg
  | Ok (Json.Obj [ ("pos", Json.Null); ("neg", Json.Null); ("nn", Json.Null) ]) -> ()
  | Ok other -> Alcotest.failf "expected all-null object, got %s" (Json.to_string other)

let test_json_parse_errors () =
  List.iter
    (fun text ->
      match Json.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" text)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let test_json_numbers () =
  (match Json.of_string "[0, -7, 123456789]" with
  | Ok (Json.List [ Json.Int 0; Json.Int (-7); Json.Int 123456789 ]) -> ()
  | _ -> Alcotest.fail "plain integers should parse as Int");
  match Json.of_string "[1.5, 2e3, -0.25]" with
  | Ok (Json.List [ Json.Float a; Json.Float b; Json.Float c ]) ->
    Alcotest.(check (float 1e-12)) "1.5" 1.5 a;
    Alcotest.(check (float 1e-12)) "2e3" 2000.0 b;
    Alcotest.(check (float 1e-12)) "-0.25" (-0.25) c
  | _ -> Alcotest.fail "decimals should parse as Float"

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "phoebe_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_incl hits all" `Quick test_prng_int_incl;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "strings" `Quick test_prng_strings;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "golden streams" `Quick test_prng_golden;
          Alcotest.test_case "draws allocate nothing" `Quick test_prng_alloc_free;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "range" `Quick test_zipf_range;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "nurand range" `Quick test_nurand_range;
        ] );
      ( "varint",
        Alcotest.test_case "examples" `Quick test_varint_examples
        :: Alcotest.test_case "strings" `Quick test_varint_string
        :: Alcotest.test_case "floats" `Quick test_varint_float
        :: Alcotest.test_case "overrun" `Quick test_varint_overrun
        :: qsuite [ prop_varint_int; prop_varint_int64; prop_varint_string ] );
      ( "crc32",
        [
          Alcotest.test_case "known vector" `Quick test_crc32_known;
          Alcotest.test_case "distinguishes" `Quick test_crc32_distinguishes;
          Alcotest.test_case "range" `Quick test_crc32_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "scalar" `Quick test_scalar;
          Alcotest.test_case "scalar empty" `Quick test_scalar_empty;
          Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "histogram empty/single" `Quick test_histogram_empty_and_single;
          Alcotest.test_case "histogram monotone in p" `Quick test_histogram_monotone_in_p;
          Alcotest.test_case "histogram bucket roundtrip" `Quick test_histogram_bucket_roundtrip;
          Alcotest.test_case "series buckets" `Quick test_series_buckets;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "number classes" `Quick test_json_numbers;
        ] );
    ]
