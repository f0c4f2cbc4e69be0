(* Tests for the table B-tree (row_id keyed, PAX leaves, temperature
   tiers) and the secondary index tree. *)
open Phoebe_btree
module Value = Phoebe_storage.Value
module Pax = Phoebe_storage.Pax
module Bufmgr = Phoebe_storage.Bufmgr
module Engine = Phoebe_sim.Engine
module Device = Phoebe_io.Device
module Pagestore = Phoebe_io.Pagestore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let value_eq : Value.t Alcotest.testable =
  Alcotest.testable (fun fmt v -> Value.pp fmt v) Value.equal

let schema = Value.Schema.make [ ("k", Value.T_int); ("v", Value.T_str) ]
let row k s = [| Value.Int k; Value.Str s |]

let pax_codec : Pax.t Bufmgr.codec =
  { Bufmgr.encode = Pax.encode; decode = Pax.decode; size = Pax.size_bytes }

let make_env ?(leaf_capacity = 8) ?(budget = 100_000_000) () =
  let eng = Engine.create () in
  let data_dev = Device.create eng ~name:"data" Device.pm9a3 in
  let block_dev = Device.create eng ~name:"blocks" Device.pm9a3 in
  let buf =
    Bufmgr.create eng ~store:(Pagestore.create data_dev) ~partitions:1 ~budget_bytes:budget
      ~codec:pax_codec
  in
  ( eng,
    buf,
    Table_tree.create ~name:"t" ~schema ~buf ~block_store:(Pagestore.create block_dev)
      ~leaf_capacity () )

let make_tree ?leaf_capacity ?budget () =
  let _, _, t = make_env ?leaf_capacity ?budget () in
  t

(* ------------------------------------------------------------------ *)
(* Table tree *)

let test_tt_append_read () =
  let t = make_tree () in
  let rids = List.init 100 (fun i -> Table_tree.append t (row i (Printf.sprintf "v%d" i))) in
  Alcotest.(check (list int)) "row ids are sequential" (List.init 100 (fun i -> i + 1)) rids;
  List.iteri
    (fun i rid ->
      match Table_tree.read t ~row_id:rid with
      | Some r -> Alcotest.check (Alcotest.array value_eq) "tuple" (row i (Printf.sprintf "v%d" i)) r
      | None -> Alcotest.failf "row %d missing" rid)
    rids

let test_tt_many_leaves () =
  let t = make_tree ~leaf_capacity:4 () in
  for i = 1 to 1000 do
    ignore (Table_tree.append t (row i "x"))
  done;
  check_bool "many leaves" true (Table_tree.leaf_count t > 200);
  check_int "all readable" 1000
    (List.length (List.filter (fun rid -> Table_tree.read t ~row_id:rid <> None) (List.init 1000 (fun i -> i + 1))))

let test_tt_absent_rids () =
  let t = make_tree () in
  ignore (Table_tree.append t (row 1 "a"));
  check_bool "rid 0" true (Table_tree.read t ~row_id:0 = None);
  check_bool "future rid" true (Table_tree.read t ~row_id:99 = None);
  check_bool "negative rid" true (Table_tree.read t ~row_id:(-5) = None)

let test_tt_delete () =
  let t = make_tree () in
  let rid = Table_tree.append t (row 1 "a") in
  check_bool "delete" true (Table_tree.mark_deleted t ~row_id:rid);
  check_bool "double delete" false (Table_tree.mark_deleted t ~row_id:rid);
  check_bool "read deleted" true (Table_tree.read t ~row_id:rid = None);
  check_int "live count" 0 (Table_tree.tuple_count_estimate t)

let test_tt_scan_order () =
  let t = make_tree ~leaf_capacity:4 () in
  for i = 1 to 50 do
    ignore (Table_tree.append t (row i "x"))
  done;
  ignore (Table_tree.mark_deleted t ~row_id:10);
  let seen = ref [] in
  Table_tree.scan t (fun rid _ -> seen := rid :: !seen);
  let expected = List.filter (fun r -> r <> 10) (List.init 50 (fun i -> i + 1)) in
  Alcotest.(check (list int)) "in order, skipping deleted" expected (List.rev !seen);
  (* bounded scan *)
  let seen = ref [] in
  Table_tree.scan t ~from_rid:20 ~to_rid:25 (fun rid _ -> seen := rid :: !seen);
  Alcotest.(check (list int)) "bounded" [ 20; 21; 22; 23; 24; 25 ] (List.rev !seen)

let test_tt_freeze_prefix () =
  let t = make_tree ~leaf_capacity:4 () in
  for i = 1 to 40 do
    ignore (Table_tree.append t (row i (Printf.sprintf "s%d" (i mod 3))))
  done;
  ignore (Table_tree.mark_deleted t ~row_id:3);
  let frozen = Table_tree.freeze_prefix t ~up_to_rid:20 in
  check_int "tuples frozen (minus deleted)" 19 frozen;
  check_bool "max_frozen advanced" true (Table_tree.max_frozen_row_id t >= 19);
  check_bool "blocks created" true (Table_tree.frozen_block_count t > 0);
  (* Reads hit the frozen tier transparently. *)
  (match Table_tree.read t ~row_id:5 with
  | Some r -> Alcotest.check (Alcotest.array value_eq) "frozen read" (row 5 "s2") r
  | None -> Alcotest.fail "frozen row unreadable");
  check_bool "deleted row stays deleted" true (Table_tree.read t ~row_id:3 = None);
  (* Unfrozen rows still readable. *)
  check_bool "hot read" true (Table_tree.read t ~row_id:30 <> None);
  (* Scan crosses the tier boundary in order. *)
  let seen = ref [] in
  Table_tree.scan t (fun rid _ -> seen := rid :: !seen);
  let expected = List.filter (fun r -> r <> 3) (List.init 40 (fun i -> i + 1)) in
  Alcotest.(check (list int)) "scan across tiers" expected (List.rev !seen);
  check_bool "compression > 1" true (Table_tree.compression_ratio t > 1.0)

let test_tt_freeze_then_delete_frozen () =
  let t = make_tree ~leaf_capacity:4 () in
  for i = 1 to 20 do
    ignore (Table_tree.append t (row i "x"))
  done;
  ignore (Table_tree.freeze_prefix t ~up_to_rid:12);
  check_bool "delete frozen row" true (Table_tree.mark_deleted t ~row_id:5);
  check_bool "frozen row gone" true (Table_tree.read t ~row_id:5 = None)

let test_tt_freeze_cold_prefix_respects_access () =
  let t = make_tree ~leaf_capacity:4 () in
  for i = 1 to 32 do
    ignore (Table_tree.append t (row i "x"))
  done;
  (* Loading touched every leaf; decay the counters to zero first, as the
     housekeeping task does over time, then heat one leaf. *)
  for _ = 1 to 6 do
    Table_tree.decay_access_counts t
  done;
  (* Touch rows 9..12 (third leaf) to heat that leaf. *)
  for _ = 1 to 10 do
    for rid = 9 to 12 do
      ignore (Table_tree.read t ~row_id:rid)
    done
  done;
  let frozen = Table_tree.freeze_cold_prefix t ~max_access:3 in
  check_int "freezes only the cold prefix (2 leaves)" 8 frozen;
  check_bool "hot leaf not frozen" true (Table_tree.max_frozen_row_id t < 9)

let test_tt_eviction_cold_reads () =
  (* Tiny buffer: leaves spill to the data page file and fault back. *)
  let t = make_tree ~leaf_capacity:4 ~budget:2048 () in
  for i = 1 to 200 do
    ignore (Table_tree.append t (row i (Printf.sprintf "payload-%d" i)))
  done;
  (* All rows must still be readable through cold faults. *)
  let ok = ref 0 in
  for rid = 1 to 200 do
    match Table_tree.read t ~row_id:rid with
    | Some r when Value.equal r.(0) (Value.Int rid) -> incr ok
    | _ -> ()
  done;
  check_int "all rows readable with tiny buffer" 200 !ok

let test_tt_scan_with_rid_gaps () =
  (* Row-id gaps (aborted inserts, recovery replay) must not stop scans
     at leaf boundaries. *)
  let t = make_tree ~leaf_capacity:4 () in
  let rids = [ 1; 2; 3; 4; 10; 11; 12; 13; 30; 31 ] in
  List.iter (fun rid -> Table_tree.append_exact t ~row_id:rid (row rid "g")) rids;
  let seen = ref [] in
  Table_tree.scan t (fun rid _ -> seen := rid :: !seen);
  Alcotest.(check (list int)) "all rows across gaps" rids (List.rev !seen)

(* Model-based: random appends / deletes / reads against a Hashtbl. *)
let test_tt_model_random_ops () =
  let rng = Phoebe_util.Prng.create ~seed:99 in
  let t = make_tree ~leaf_capacity:4 () in
  let model : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let live = ref [] in
  for step = 1 to 2000 do
    match Phoebe_util.Prng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      let s = Printf.sprintf "s%d" step in
      let rid = Table_tree.append t (row step s) in
      Hashtbl.replace model rid s;
      live := rid :: !live
    | 4 | 5 -> (
      match !live with
      | [] -> ()
      | rid :: rest ->
        live := rest;
        ignore (Table_tree.mark_deleted t ~row_id:rid);
        Hashtbl.remove model rid)
    | _ -> (
      let rid = 1 + Phoebe_util.Prng.int rng (step + 1) in
      match (Table_tree.read t ~row_id:rid, Hashtbl.find_opt model rid) with
      | Some r, Some s ->
        if not (Value.equal r.(1) (Value.Str s)) then Alcotest.failf "mismatch at rid %d" rid
      | None, None -> ()
      | Some _, None -> Alcotest.failf "tree has rid %d, model does not" rid
      | None, Some _ -> Alcotest.failf "model has rid %d, tree does not" rid)
  done;
  check_int "live counts agree" (Hashtbl.length model) (Table_tree.tuple_count_estimate t)

(* Fence cache: a lookup served from the cached leaf fences must find
   exactly what a full descent finds, whatever happened to the tree in
   between — rightmost-leaf appends, deletes, eviction and reload in a
   tiny pool, and freezing. Each probe first looks up a rid in another
   leaf (so the next lookup descends), then looks the probe rid up twice:
   a descent, then a fence hit. *)

(* eviction honours a recency guard: hop virtual time forward so that
   untouched leaves become eligible *)
let age eng = Engine.run_until eng ~time:(Engine.now eng + 1_000_000)

(* Where a locate finds [row_id], as a comparable value, with the frame
   of a page-tier row. *)
let locate_at ?touch t ~row_id =
  match Table_tree.locate ?touch t ~row_id with
  | -1 -> (`Absent, None)
  | -2 -> (`Frozen (Phoebe_storage.Frozen.first_row_id (Table_tree.located_block t)), None)
  | slot ->
    let frame = Table_tree.located_frame t in
    (`Page (Bufmgr.page_id frame, slot), Some frame)

let test_tt_fence_hit_matches_descent () =
  let rng = Phoebe_util.Prng.create ~seed:2024 in
  let eng, buf, t = make_env ~leaf_capacity:4 ~budget:4096 () in
  let model : (int, string) Hashtbl.t = Hashtbl.create 256 in
  let compared = ref 0 in
  for step = 1 to 3000 do
    match Phoebe_util.Prng.int rng 20 with
    | 0 | 1 | 2 | 3 | 4 ->
      let s = Printf.sprintf "s%d" step in
      Hashtbl.replace model (Table_tree.append t (row step s)) s
    | 5 ->
      let rid = 1 + Phoebe_util.Prng.int rng (Table_tree.next_row_id t) in
      if Table_tree.mark_deleted t ~row_id:rid then Hashtbl.remove model rid
    | 6 ->
      age eng;
      Bufmgr.maintain buf ~partition:0
    | 7 ->
      if step mod 5 = 0 then
        ignore (Table_tree.freeze_prefix t ~up_to_rid:(Table_tree.max_frozen_row_id t + 6))
    | _ ->
      let hi = Table_tree.next_row_id t - 1 in
      if hi > 0 then begin
        let rid = 1 + Phoebe_util.Prng.int rng hi in
        let elsewhere = if rid > hi / 2 then Table_tree.max_frozen_row_id t + 1 else hi in
        let bust, _ = locate_at ~touch:false t ~row_id:elsewhere in
        let descent, descent_frame = locate_at t ~row_id:rid in
        let count_after_descent =
          match descent_frame with Some frame -> Bufmgr.access_count frame | None -> 0
        in
        if Phoebe_util.Prng.int rng 2 = 0 then age eng;
        let hit, _ = locate_at t ~row_id:rid in
        if descent <> hit then
          Alcotest.failf "step %d: rid %d located differently by descent and fence hit" step rid;
        (match (descent_frame, bust) with
        | Some frame, `Page (pid, _) when pid <> Bufmgr.page_id frame ->
          incr compared;
          (* the hit did a resolve's bookkeeping: one access, fresh recency *)
          check_int "hit counts one access" (count_after_descent + 1) (Bufmgr.access_count frame);
          check_int "hit refreshes recency" (Engine.now eng) (Bufmgr.last_access frame)
        | _ -> ());
        match (Table_tree.read t ~row_id:rid, Hashtbl.find_opt model rid) with
        | Some r, Some s ->
          if not (Value.equal r.(1) (Value.Str s)) then Alcotest.failf "step %d: rid %d mismatch" step rid
        | None, None -> ()
        | Some _, None -> Alcotest.failf "step %d: tree has rid %d, model does not" step rid
        | None, Some _ -> Alcotest.failf "step %d: model has rid %d, tree does not" step rid
      end
  done;
  check_bool "many descent/hit pairs compared" true (!compared > 200);
  check_bool "the pool evicted leaves" true (Pagestore.page_count (Bufmgr.store buf) > 0);
  check_bool "the tree froze leaves" true (Table_tree.frozen_block_count t > 0)

(* Freezing drops a leaf's frame while the cache may still hold its
   fences, and a deleted tail row of a frozen leaf stays above
   [max_frozen_row_id]: the lookup must miss the cache and find
   nothing. *)
let test_tt_fence_skips_frozen_leaf () =
  let t = make_tree ~leaf_capacity:4 () in
  for i = 1 to 12 do
    ignore (Table_tree.append t (row i "x"))
  done;
  ignore (Table_tree.mark_deleted t ~row_id:8);
  ignore (Table_tree.read t ~row_id:7);
  ignore (Table_tree.freeze_prefix t ~up_to_rid:8);
  check_int "block ends at the last live row" 7 (Table_tree.max_frozen_row_id t);
  check_bool "deleted tail row is absent" true (fst (locate_at t ~row_id:8) = `Absent);
  check_bool "frozen row readable" true (Table_tree.read t ~row_id:7 <> None)

(* A fence hit refreshes eviction recency: after virtual time passes, a
   leaf read only through the cache stays resident while an untouched
   leaf is evicted. *)
let test_tt_fence_hit_keeps_leaf_warm () =
  let eng, buf, t = make_env ~leaf_capacity:4 () in
  for i = 1 to 8 do
    ignore (Table_tree.append t (row i "x"))
  done;
  let frame_of rid =
    match locate_at ~touch:false t ~row_id:rid with
    | _, Some frame -> frame
    | _, None -> Alcotest.failf "rid %d not in a page" rid
  in
  let first = frame_of 2 and rightmost = frame_of 6 in
  ignore (Table_tree.read t ~row_id:2);
  age eng;
  ignore (Table_tree.read t ~row_id:3);
  Bufmgr.set_budget buf ~budget_bytes:1;
  Bufmgr.maintain buf ~partition:0;
  check_bool "untouched leaf evicted" false (Bufmgr.is_resident rightmost);
  check_bool "leaf read through the cache stays resident" true (Bufmgr.is_resident first)

(* ------------------------------------------------------------------ *)
(* Index tree *)

let key_of_int i =
  Index_tree.encode_key [ Value.Int i ]

(* A key buffer holding the bytes [s]. *)
let kb s =
  let k = Phoebe_storage.Keybuf.create () in
  Phoebe_storage.Keybuf.add_string k s;
  k

let test_ix_insert_lookup () =
  let ix = Index_tree.create ~name:"ix" ~unique:true () in
  for i = 1 to 500 do
    Index_tree.insert ix ~key:(key_of_int i) ~rid:(i * 10)
  done;
  check_int "count" 500 (Index_tree.count ix);
  check_bool "depth grew" true (Index_tree.depth ix > 1);
  for i = 1 to 500 do
    check_bool "lookup" true (Index_tree.lookup_first ix ~key:(key_of_int i) = Some (i * 10))
  done;
  check_bool "absent" true (Index_tree.lookup_first ix ~key:(key_of_int 501) = None)

let test_ix_unique_violation () =
  let ix = Index_tree.create ~name:"ix" ~unique:true () in
  Index_tree.insert ix ~key:"k" ~rid:1;
  Alcotest.check_raises "duplicate" (Index_tree.Duplicate_key "k") (fun () ->
      Index_tree.insert ix ~key:"k" ~rid:2)

(* Every rid under [key], ascending, through the equal-key walk: the
   destination starts at one entry and doubles until the count fits. *)
let rids_of ix ~key =
  let rec go dst =
    let n = Index_tree.collect_key ix ~key:(kb key) dst in
    if n > Array.length dst then go (Array.make (2 * n) 0) else Array.to_list (Array.sub dst 0 n)
  in
  go [| 0 |]

let test_ix_non_unique () =
  let ix = Index_tree.create ~name:"ix" ~unique:false () in
  Index_tree.insert ix ~key:"a" ~rid:3;
  Index_tree.insert ix ~key:"a" ~rid:1;
  Index_tree.insert ix ~key:"a" ~rid:2;
  Index_tree.insert ix ~key:"b" ~rid:9;
  Alcotest.(check (list int)) "rids ascending" [ 1; 2; 3 ] (rids_of ix ~key:"a");
  Alcotest.(check (list int)) "other key" [ 9 ] (rids_of ix ~key:"b");
  Alcotest.(check (list int)) "absent key" [] (rids_of ix ~key:"c")

let test_ix_delete () =
  let ix = Index_tree.create ~name:"ix" ~unique:false () in
  Index_tree.insert ix ~key:"a" ~rid:1;
  Index_tree.insert ix ~key:"a" ~rid:2;
  check_bool "delete existing" true (Index_tree.delete ix ~key:"a" ~rid:1);
  check_bool "delete absent" false (Index_tree.delete ix ~key:"a" ~rid:1);
  Alcotest.(check (list int)) "remaining" [ 2 ] (rids_of ix ~key:"a");
  check_int "count" 1 (Index_tree.count ix)

let test_ix_prefix () =
  let ix = Index_tree.create ~name:"ix" ~unique:false () in
  List.iteri
    (fun i k -> Index_tree.insert ix ~key:k ~rid:i)
    [ "apple"; "applesauce"; "banana"; "app"; "application" ];
  let seen = ref [] in
  Index_tree.prefix ix ~prefix:(kb "apple") (kb "") (fun k _ ->
      seen := Phoebe_storage.Keybuf.to_string k :: !seen;
      true);
  Alcotest.(check (list string)) "prefix matches" [ "apple"; "applesauce" ] (List.rev !seen);
  (* the callback stops the walk early *)
  let seen = ref 0 in
  Index_tree.prefix ix ~prefix:(kb "app") (kb "") (fun _ _ ->
      incr seen;
      !seen < 2);
  check_int "early stop" 2 !seen

let test_ix_duplicate_keys_across_splits () =
  (* Many entries under one key must survive node splits, and the
     equal-key walk must find them all, in rid order, across leaves. *)
  let ix = Index_tree.create ~name:"ix" ~fanout:8 ~unique:false () in
  for rid = 300 downto 1 do
    Index_tree.insert ix ~key:"same" ~rid
  done;
  for rid = 1 to 50 do
    Index_tree.insert ix ~key:"other" ~rid
  done;
  let all = List.init 300 (fun i -> i + 1) in
  let dst = Array.make 300 0 in
  check_int "all same-key entries counted" 300 (Index_tree.collect_key ix ~key:(kb "same") dst);
  Alcotest.(check (list int)) "same-key rids ascending" all (Array.to_list dst);
  check_int "other key intact" 50 (Index_tree.collect_key ix ~key:(kb "other") dst);
  (* a destination too small gets the count and only its first entries:
     grow it and walk again *)
  let small = Array.make 16 (-1) in
  check_int "count exceeds the destination" 300 (Index_tree.collect_key ix ~key:(kb "same") small);
  Alcotest.(check (list int)) "prefix of the rids written" (List.init 16 (fun i -> i + 1)) (Array.to_list small);
  let grown = Array.make 300 (-1) in
  check_int "grown destination holds every rid" 300 (Index_tree.collect_key ix ~key:(kb "same") grown);
  Alcotest.(check (list int)) "same ascending rids after growing" all (Array.to_list grown)

let test_ix_composite_keys () =
  let ix = Index_tree.create ~name:"ix" ~unique:true () in
  (* (w_id, d_id, c_id) composite — typical TPC-C customer key. *)
  for w = 1 to 3 do
    for d = 1 to 4 do
      for c = 1 to 5 do
        Index_tree.insert ix
          ~key:(Index_tree.encode_key [ Value.Int w; Value.Int d; Value.Int c ])
          ~rid:((w * 100) + (d * 10) + c)
      done
    done
  done;
  check_bool "point lookup" true
    (Index_tree.lookup_first ix ~key:(Index_tree.encode_key [ Value.Int 2; Value.Int 3; Value.Int 4 ])
    = Some 234);
  (* prefix over (w_id=2, d_id=3) returns its 5 customers in order *)
  let seen = ref [] in
  let p = Index_tree.encode_key [ Value.Int 2; Value.Int 3 ] in
  Index_tree.prefix ix ~prefix:(kb p) (kb "") (fun _ rid ->
      seen := rid :: !seen;
      true);
  Alcotest.(check (list int)) "prefix scan" [ 231; 232; 233; 234; 235 ] (List.rev !seen)

(* Every finding of the structural check, named, for a failure message. *)
let check_sound what ix =
  match Index_tree.verify ix with
  | [] -> ()
  | fs ->
    Alcotest.failf "%s: %s" what
      (String.concat "; "
         (List.map (fun f -> Index_tree.rule_name f.Index_tree.rule ^ ": " ^ f.Index_tree.detail) fs))

(* Every (key, rid) under [prefix], in walk order, stopping after
   [stop] visits. *)
let walk_prefix ix prefix ~stop =
  let seen = ref [] and n = ref 0 in
  Index_tree.prefix ix ~prefix:(kb prefix) (kb "")
    (fun k rid ->
      seen := (Phoebe_storage.Keybuf.to_string k, rid) :: !seen;
      incr n;
      !n < stop);
  List.rev !seen

let test_ix_prefix_shortens () =
  (* keys below the first and above the last shorten a node's prefix;
     every key must still be found, and the tree stays sound *)
  let ix = Index_tree.create ~name:"ix" ~fanout:8 ~unique:false () in
  let keys = [ "abcdef1"; "abcdef2"; "abcdef0"; "abc"; "abcz"; "ab\x00"; "b"; ""; "abcdef10" ] in
  List.iteri
    (fun i k ->
      Index_tree.insert ix ~key:k ~rid:i;
      check_sound ("after inserting " ^ String.escaped k) ix)
    keys;
  List.iteri (fun i k -> Alcotest.(check (list int)) ("rids of " ^ String.escaped k) [ i ] (rids_of ix ~key:k)) keys;
  Alcotest.(check (list (pair string int)))
    "prefix walk over abcdef"
    [ ("abcdef0", 2); ("abcdef1", 0); ("abcdef10", 8); ("abcdef2", 1) ]
    (walk_prefix ix "abcdef" ~stop:max_int)

(* The longest key a node's 16-bit offsets hold at the default fanout
   of 64 is 65,535 / 64 = 1,023 bytes: that key goes in, in either form,
   and a byte more is refused before the tree is touched. *)
let test_ix_key_length_limit () =
  let ix = Index_tree.create ~name:"ix" ~unique:false () in
  let at_limit = String.make 1023 'k' and over = String.make 1024 'k' in
  Index_tree.insert ix ~key:at_limit ~rid:1;
  Index_tree.insert_key ix (kb at_limit) ~rid:2;
  Alcotest.(check (list int)) "both entries at the limit" [ 1; 2 ] (rids_of ix ~key:at_limit);
  Alcotest.(check (list (pair string int)))
    "a walk rebuilds both into a buffer grown from 64 bytes" [ (at_limit, 1); (at_limit, 2) ]
    (walk_prefix ix "k" ~stop:max_int);
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s: a key of 1,024 bytes was accepted" what
    | exception Invalid_argument _ -> ()
  in
  refused "string form" (fun () -> Index_tree.insert ix ~key:over ~rid:3);
  refused "key form" (fun () -> Index_tree.insert_key ix (kb over) ~rid:3);
  check_int "count" 2 (Index_tree.count ix);
  check_sound "after the refusals" ix

let test_ix_empty_leaves () =
  (* deletes that empty leaves in the middle of the tree, then inserts
     into the emptied range *)
  let ix = Index_tree.create ~name:"ix" ~fanout:4 ~unique:false () in
  let key i = Index_tree.encode_key [ Value.Int 7; Value.Str "district"; Value.Int i ] in
  for i = 1 to 200 do
    Index_tree.insert ix ~key:(key i) ~rid:i
  done;
  for i = 40 to 160 do
    check_bool "delete" true (Index_tree.delete ix ~key:(key i) ~rid:i)
  done;
  check_sound "after emptying leaves" ix;
  check_int "count" 79 (Index_tree.count ix);
  Alcotest.(check (list int)) "deleted key gone" [] (rids_of ix ~key:(key 100));
  for i = 160 downto 40 do
    Index_tree.insert ix ~key:(key i) ~rid:(1000 + i)
  done;
  check_sound "after refilling" ix;
  for i = 1 to 200 do
    let want = if i >= 40 && i <= 160 then 1000 + i else i in
    check_bool "lookup" true (Index_tree.lookup_first ix ~key:(key i) = Some want)
  done

(* A key the model test draws: TPC-C-shaped components behind long
   shared prefixes, strings with [\x00] bytes (escaped by the encoding),
   and prefixes of other keys. *)
let model_strings =
  [| ""; "\x00"; "a\x00b"; "a\x00\x00"; "customer-last-name-BARBARBAR"; "customer-last-name-BARBAROUGHT";
     "customer-last-name-BAR"; "\xff\x00\xff" |]

let model_key (w, s, i) =
  Index_tree.encode_key [ Value.Int w; Value.Str model_strings.(s); Value.Int i ]

(* The probes a prefix walk draws: the empty key, one or two components,
   a whole key, and a key cut inside a component. *)
let model_prefix (w, s, i) cut =
  match cut with
  | 0 -> ""
  | 1 -> Index_tree.encode_key [ Value.Int w ]
  | 2 -> Index_tree.encode_key [ Value.Int w; Value.Str model_strings.(s) ]
  | 3 -> model_key (w, s, i)
  | _ ->
    let k = model_key (w, s, i) in
    String.sub k 0 (String.length k - 3)

module Entries = Set.Make (struct
  type t = string * int

  let compare (k1, r1) (k2, r2) =
    let c = String.compare k1 k2 in
    if c <> 0 then c else Int.compare r1 r2
end)

let model_op_gen =
  QCheck.Gen.(
    map
      (fun (op, w, s, i, r, cut) -> (op, (w, s, i), r, cut))
      (tup6 (int_range 0 6) (int_range 1 2)
         (int_range 0 (Array.length model_strings - 1))
         (oneof [ int_range 0 2; int_range 0 40 ])
         (int_range 0 5) (int_range 0 4)))

let prop_ix_model =
  (* insert, delete, collect_key, lookup_first and prefix against a
     sorted model, with the structural check after every step; inserts
     outnumber deletes two to one, and fanout 4 makes every few keys a
     node, so prefixes shorten and leaves empty often; half the keys
     end in one of three ints, so one key's rids span leaves *)
  QCheck.Test.make ~name:"index tree vs model" ~count:1000
    (QCheck.make QCheck.Gen.(list_size (int_range 1 150) model_op_gen))
    (fun ops ->
      let ix = Index_tree.create ~name:"m" ~fanout:4 ~unique:false () in
      let model = ref Entries.empty in
      let rids_under key =
        Entries.elements !model |> List.filter (fun (k, _) -> String.equal k key) |> List.map snd
      in
      List.iteri
        (fun step (op, kc, r, cut) ->
          let key = model_key kc in
          (match op with
          | 0 | 1 | 2 ->
            if not (Entries.mem (key, r) !model) then begin
              Index_tree.insert ix ~key ~rid:r;
              model := Entries.add (key, r) !model
            end
          | 3 ->
            let present = Entries.mem (key, r) !model in
            if Index_tree.delete ix ~key ~rid:r <> present then failwith "delete disagrees";
            model := Entries.remove (key, r) !model
          | 4 -> if rids_of ix ~key <> rids_under key then failwith "collect_key disagrees"
          | 5 ->
            let want = match rids_under key with [] -> None | r :: _ -> Some r in
            if Index_tree.lookup_first ix ~key <> want then failwith "lookup_first disagrees"
          | _ ->
            let p = model_prefix kc cut in
            let stop = if r = 0 then max_int else r in
            let all = Entries.elements !model |> List.filter (fun (k, _) -> String.starts_with ~prefix:p k) in
            let want = List.filteri (fun i _ -> i < stop) all in
            if walk_prefix ix p ~stop <> want then failwith "prefix disagrees");
          if Index_tree.count ix <> Entries.cardinal !model then failwith "count disagrees";
          match Index_tree.verify ix with
          | [] -> ()
          | f :: _ ->
            failwith
              (Printf.sprintf "step %d: %s: %s" step (Index_tree.rule_name f.Index_tree.rule) f.Index_tree.detail))
        ops;
      true)

let test_ix_bytes_per_entry () =
  (* orderline_pk's key (w, d, o, ol_number) for 100k lines inserted in
     the order TPC-C loads them: 5 to 15 lines per order, rids ascending.
     The packed nodes hold each entry in at most 4 words; one string
     per key plus two fanout-sized arrays per half-full leaf took about
     10. *)
  let ix = Index_tree.create ~name:"orderline_pk" ~unique:false () in
  let rid = ref 0 and o = ref 0 in
  while !rid < 100_000 do
    incr o;
    for d = 1 to 10 do
      for ol = 1 to 5 + (((!o * 7) + d) mod 11) do
        if !rid < 100_000 then begin
          incr rid;
          Index_tree.insert ix
            ~key:(Index_tree.encode_key [ Value.Int 1; Value.Int d; Value.Int !o; Value.Int ol ])
            ~rid:!rid
        end
      done
    done
  done;
  check_sound "orderline-shaped tree" ix;
  let words = float_of_int (Obj.reachable_words (Obj.repr ix)) /. 100_000. in
  if words > 4.0 then Alcotest.failf "%.2f words per entry (at most 4)" words

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "phoebe_btree"
    [
      ( "table_tree",
        [
          Alcotest.test_case "append/read" `Quick test_tt_append_read;
          Alcotest.test_case "many leaves" `Quick test_tt_many_leaves;
          Alcotest.test_case "absent rids" `Quick test_tt_absent_rids;
          Alcotest.test_case "delete" `Quick test_tt_delete;
          Alcotest.test_case "scan order" `Quick test_tt_scan_order;
          Alcotest.test_case "freeze prefix" `Quick test_tt_freeze_prefix;
          Alcotest.test_case "delete frozen" `Quick test_tt_freeze_then_delete_frozen;
          Alcotest.test_case "freeze respects access counts" `Quick
            test_tt_freeze_cold_prefix_respects_access;
          Alcotest.test_case "cold reads under tiny buffer" `Quick test_tt_eviction_cold_reads;
          Alcotest.test_case "scan with rid gaps" `Quick test_tt_scan_with_rid_gaps;
          Alcotest.test_case "model random ops" `Quick test_tt_model_random_ops;
          Alcotest.test_case "fence hit matches descent" `Quick test_tt_fence_hit_matches_descent;
          Alcotest.test_case "fence hit keeps leaf warm" `Quick test_tt_fence_hit_keeps_leaf_warm;
          Alcotest.test_case "fence skips frozen leaf" `Quick test_tt_fence_skips_frozen_leaf;
        ] );
      ( "index_tree",
        Alcotest.test_case "insert/lookup" `Quick test_ix_insert_lookup
        :: Alcotest.test_case "unique violation" `Quick test_ix_unique_violation
        :: Alcotest.test_case "key length limit" `Quick test_ix_key_length_limit
        :: Alcotest.test_case "non-unique" `Quick test_ix_non_unique
        :: Alcotest.test_case "delete" `Quick test_ix_delete
        :: Alcotest.test_case "prefix" `Quick test_ix_prefix
        :: Alcotest.test_case "duplicates across splits" `Quick test_ix_duplicate_keys_across_splits
        :: Alcotest.test_case "composite keys" `Quick test_ix_composite_keys
        :: Alcotest.test_case "prefix shortens" `Quick test_ix_prefix_shortens
        :: Alcotest.test_case "emptied leaves" `Quick test_ix_empty_leaves
        :: Alcotest.test_case "bytes per entry" `Quick test_ix_bytes_per_entry
        :: qsuite [ prop_ix_model ] );
    ]
