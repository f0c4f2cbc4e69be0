(* Tests for the transaction layer: clock/XIDs, UNDO chains, twin tables,
   Algorithm 1 visibility (including the paper's Example 6.2), the WAL
   record codec, RFA, and recovery replay. *)
module Clock = Phoebe_txn.Clock
module Undo = Phoebe_txn.Undo
module Twin = Phoebe_txn.Twin
module Mvcc = Phoebe_txn.Mvcc
module Record = Phoebe_wal.Record
module Wal = Phoebe_wal.Wal
module Recovery = Phoebe_wal.Recovery
module Value = Phoebe_storage.Value
module Engine = Phoebe_sim.Engine
module Device = Phoebe_io.Device
module Walstore = Phoebe_io.Walstore
module Prng = Phoebe_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Clock / XID *)

let test_clock_monotone () =
  let c = Clock.create () in
  let a = Clock.next c in
  let b = Clock.next c in
  check_bool "monotone" true (b > a);
  check_int "current reads last" b (Clock.current c)

let test_xid_encoding () =
  let xid = Clock.xid_of_start_ts 12345 in
  check_bool "is xid" true (Clock.is_xid xid);
  check_int "start ts roundtrip" 12345 (Clock.start_ts_of_xid xid);
  check_bool "timestamps are not xids" false (Clock.is_xid 987654321)

let test_xid_compares_above_timestamps () =
  (* The property Algorithm 1 relies on: an uncommitted ets (an XID)
     is greater than every snapshot timestamp. *)
  let xid = Clock.xid_of_start_ts 1 in
  check_bool "xid > huge ts" true (xid > 1_000_000_000_000)

(* ------------------------------------------------------------------ *)
(* Undo *)

let test_undo_txn_chain () =
  let u1 = Undo.make ~table_id:1 ~rid:1 ~kind:Undo.Created ~sts:0 ~xid:900 ~slot:0 ~prev:None in
  let u2 =
    Undo.make ~table_id:1 ~rid:2 ~kind:(Undo.Updated [| (0, Value.Int 5) |]) ~sts:3 ~xid:900
      ~slot:0 ~prev:None
  in
  u2.Undo.next_in_txn <- Some u1;
  check_int "txn chain length" 2 (Undo.txn_length (Some u2));
  let seen = ref [] in
  Undo.iter_txn (Some u2) (fun u -> seen := u.Undo.rid :: !seen);
  Alcotest.(check (list int)) "newest first" [ 2; 1 ] (List.rev !seen)

let test_undo_committed_flag () =
  let xid = Clock.xid_of_start_ts 7 in
  let u = Undo.make ~table_id:1 ~rid:1 ~kind:Undo.Created ~sts:0 ~xid ~slot:0 ~prev:None in
  check_bool "active" false (Undo.is_committed u);
  u.Undo.ets <- 42;
  check_bool "committed" true (Undo.is_committed u)

(* Slab reuse: [make] popping the freelist must re-stamp EVERY header
   field — one stale [ets], link or [reclaimed] bit from the entry's
   previous life would corrupt visibility or trip the commit checker. *)
let test_undo_freelist_recycle_clears_fields () =
  let dead =
    Undo.make ~table_id:7 ~rid:9
      ~kind:(Undo.Deleted [| Value.Str "old-life" |])
      ~sts:5 ~xid:(Clock.xid_of_start_ts 11) ~slot:3 ~prev:None
  in
  dead.Undo.ets <- 1234 (* pretend it committed... *);
  dead.Undo.next_in_txn <-
    Some (Undo.make ~table_id:7 ~rid:10 ~kind:Undo.Created ~sts:0 ~xid:1 ~slot:3 ~prev:None);
  dead.Undo.reclaimed <- true (* ...and was reclaimed by the GC *);
  Undo.release dead;
  check_bool "released entry is on the freelist" true (Undo.freelist_length () >= 1);
  let xid = Clock.xid_of_start_ts 99 in
  let fresh = Undo.make ~table_id:1 ~rid:2 ~kind:Undo.Created ~sts:0 ~xid ~slot:0 ~prev:None in
  check_bool "freelist head was recycled" true (fresh == dead);
  check_int "table_id re-stamped" 1 fresh.Undo.table_id;
  check_int "rid re-stamped" 2 fresh.Undo.rid;
  check_bool "kind re-stamped" true (fresh.Undo.kind = Undo.Created);
  check_int "sts re-stamped" 0 fresh.Undo.sts;
  check_int "ets restarts as the new xid" xid fresh.Undo.ets;
  check_int "slot re-stamped" 0 fresh.Undo.slot;
  check_bool "version link cleared" true (fresh.Undo.next = None);
  check_bool "txn link cleared" true (fresh.Undo.next_in_txn = None);
  check_bool "reclaimed bit cleared" false fresh.Undo.reclaimed

(* ------------------------------------------------------------------ *)
(* Twin *)

let test_twin_entries () =
  let tw = Twin.create () in
  check_bool "absent" true (Twin.find tw ~rid:1 = None);
  let e = Twin.find_or_add tw ~rid:1 in
  check_bool "present now" true (Twin.find tw ~rid:1 <> None);
  check_int "count" 1 (Twin.entry_count tw);
  let u = Undo.make ~table_id:1 ~rid:1 ~kind:Undo.Created ~sts:0 ~xid:99 ~slot:0 ~prev:None in
  e.Twin.head <- Some u;
  check_bool "chain head live" true (Twin.chain_head e <> None);
  u.Undo.reclaimed <- true;
  check_bool "reclaimed head filtered" true (Twin.chain_head e = None);
  Twin.sweep tw;
  check_int "swept" 0 (Twin.entry_count tw)

let test_twin_max_modifier () =
  let tw = Twin.create () in
  Twin.note_modifier tw ~xid:5;
  Twin.note_modifier tw ~xid:3;
  check_int "max modifier" 5 (Twin.max_modifier_xid tw)

(* ------------------------------------------------------------------ *)
(* Visibility: the paper's Example 6.2 (Figure 5) *)

(* Figure 5: three tuples.
   rid1: current 'a' written by XID7 (uncommitted); chain:
         [ets=XID7, sts=6, before='b'] -> [ets=6, sts=3, before='c']
   rid2: current 'b'; chain head [ets=3, sts=1, before='a']
   rid3: current 'c'; chain [ets=6, sts=3, before='a'] (paper: sts 3 < 5
         makes 'a' visible)
   Reader: XID3 with snapshot 5. *)
let str s = [| Value.Str s |]

(* [Mvcc.visible_version] as an option: the visible version is the
   assembled [current] *)
let visible ~xid ~snapshot ~current ~deleted_in_page ~head =
  if Mvcc.visible_version ~xid ~snapshot ~current ~deleted_in_page ~head then Some current else None

let test_example_6_2 () =
  let xid7 = Clock.xid_of_start_ts 7 in
  let xid3 = Clock.xid_of_start_ts 3 in
  (* rid1 *)
  let old1 =
    Undo.make ~table_id:1 ~rid:1 ~kind:(Undo.Updated [| (0, Value.Str "c") |]) ~sts:3 ~xid:xid7
      ~slot:0 ~prev:None
  in
  old1.Undo.ets <- 6;
  let head1 =
    Undo.make ~table_id:1 ~rid:1 ~kind:(Undo.Updated [| (0, Value.Str "b") |]) ~sts:6 ~xid:xid7
      ~slot:0 ~prev:(Some old1)
  in
  (match
     visible ~xid:xid3 ~snapshot:5 ~current:(str "a") ~deleted_in_page:false
       ~head:(Some head1)
   with
  | Some row -> Alcotest.(check string) "rid1 reads c" "c" (Value.to_string row.(0))
  | None -> Alcotest.fail "rid1 should be visible");
  (* rid2: committed at 3 <= 5: current visible *)
  let head2 =
    Undo.make ~table_id:1 ~rid:2 ~kind:(Undo.Updated [| (0, Value.Str "a") |]) ~sts:1 ~xid:xid3
      ~slot:0 ~prev:None
  in
  head2.Undo.ets <- 3;
  (match
     visible ~xid:xid3 ~snapshot:5 ~current:(str "b") ~deleted_in_page:false
       ~head:(Some head2)
   with
  | Some row -> Alcotest.(check string) "rid2 reads b" "b" (Value.to_string row.(0))
  | None -> Alcotest.fail "rid2 should be visible");
  (* rid3: head committed at 6 > 5, before image 'a' with sts 3 <= 5 *)
  let head3 =
    Undo.make ~table_id:1 ~rid:3 ~kind:(Undo.Updated [| (0, Value.Str "a") |]) ~sts:3 ~xid:xid7
      ~slot:0 ~prev:None
  in
  head3.Undo.ets <- 6;
  match
    visible ~xid:xid3 ~snapshot:5 ~current:(str "c") ~deleted_in_page:false
      ~head:(Some head3)
  with
  | Some row -> Alcotest.(check string) "rid3 reads a" "a" (Value.to_string row.(0))
  | None -> Alcotest.fail "rid3 should be visible"

let test_visibility_own_writes () =
  let xid = Clock.xid_of_start_ts 9 in
  let head =
    Undo.make ~table_id:1 ~rid:1 ~kind:(Undo.Updated [| (0, Value.Str "old") |]) ~sts:2 ~xid
      ~slot:0 ~prev:None
  in
  match
    visible ~xid ~snapshot:5 ~current:(str "mine") ~deleted_in_page:false
      ~head:(Some head)
  with
  | Some row -> Alcotest.(check string) "own write visible" "mine" (Value.to_string row.(0))
  | None -> Alcotest.fail "own write must be visible"

let test_visibility_uncommitted_insert_invisible () =
  let xid_writer = Clock.xid_of_start_ts 10 in
  let xid_reader = Clock.xid_of_start_ts 4 in
  let head = Undo.make ~table_id:1 ~rid:1 ~kind:Undo.Created ~sts:0 ~xid:xid_writer ~slot:0 ~prev:None in
  check_bool "uncommitted insert invisible" true
    (visible ~xid:xid_reader ~snapshot:8 ~current:(str "new") ~deleted_in_page:false
       ~head:(Some head)
    = None)

let test_visibility_deleted_row_for_old_snapshot () =
  (* A row deleted at ts 10 must still be readable at snapshot 5. *)
  let head =
    Undo.make ~table_id:1 ~rid:1 ~kind:(Undo.Deleted (str "content")) ~sts:2
      ~xid:(Clock.xid_of_start_ts 9) ~slot:0 ~prev:None
  in
  head.Undo.ets <- 10;
  (match
     visible ~xid:(Clock.xid_of_start_ts 3) ~snapshot:5 ~current:(str "content")
       ~deleted_in_page:true ~head:(Some head)
   with
  | Some row -> Alcotest.(check string) "old snapshot sees content" "content" (Value.to_string row.(0))
  | None -> Alcotest.fail "old snapshot must see the row");
  (* New snapshot: invisible. *)
  check_bool "new snapshot sees deletion" true
    (visible ~xid:(Clock.xid_of_start_ts 11) ~snapshot:12 ~current:(str "content")
       ~deleted_in_page:true ~head:(Some head)
    = None)

let test_visibility_no_chain () =
  check_bool "plain row visible" true
    (visible ~xid:(Clock.xid_of_start_ts 1) ~snapshot:1 ~current:(str "x")
       ~deleted_in_page:false ~head:None
    <> None);
  check_bool "deleted, no chain: invisible" true
    (visible ~xid:(Clock.xid_of_start_ts 1) ~snapshot:1 ~current:(str "x")
       ~deleted_in_page:true ~head:None
    = None)

let test_check_write () =
  let my_xid = Clock.xid_of_start_ts 5 in
  check_bool "no chain ok" true (Mvcc.check_write ~xid:my_xid ~snapshot:5 ~head:None = Mvcc.Write_ok);
  let other_xid = Clock.xid_of_start_ts 6 in
  let h = Undo.make ~table_id:1 ~rid:1 ~kind:Undo.Created ~sts:0 ~xid:other_xid ~slot:0 ~prev:None in
  check_bool "active writer -> wait" true
    (Mvcc.check_write ~xid:my_xid ~snapshot:5 ~head:(Some h) = Mvcc.Write_wait other_xid);
  h.Undo.ets <- 9;
  check_bool "newer committed -> conflict" true
    (Mvcc.check_write ~xid:my_xid ~snapshot:5 ~head:(Some h) = Mvcc.Write_conflict 9);
  check_bool "older committed -> ok" true
    (Mvcc.check_write ~xid:my_xid ~snapshot:10 ~head:(Some h) = Mvcc.Write_ok)

(* Property: Algorithm 1 against a naive history oracle. A row's history
   is insert at c0, updates at c1 < c2 < ... (value i written at ci),
   optionally a delete at the end. We build the version chain exactly
   the way the engine does and compare reads at arbitrary snapshots
   with "the latest version committed at or before the snapshot". *)
let build_history commit_times ~deleted_at_end =
  let n = List.length commit_times in
  let writer_xid = Clock.xid_of_start_ts 999_999 in
  (* newest-first chain; value after the i-th commit is i *)
  let rec build i prev =
    if i > n then prev
    else begin
      let cts = List.nth commit_times (i - 1) in
      let sts = if i = 1 then 0 else List.nth commit_times (i - 2) in
      let kind =
        if i = 1 then Undo.Created
        else if deleted_at_end && i = n then Undo.Deleted (str (string_of_int (i - 1)))
        else Undo.Updated [| (0, Value.Str (string_of_int (i - 1))) |]
      in
      let u = Undo.make ~table_id:1 ~rid:1 ~kind ~sts ~xid:writer_xid ~slot:0 ~prev:None in
      u.Undo.ets <- cts;
      u.Undo.next <- prev;
      build (i + 1) (Some u)
    end
  in
  (* the chain is built oldest-to-newest with next pointing older *)
  build 1 None

let oracle commit_times ~deleted_at_end s =
  let n = List.length commit_times in
  let committed_before = List.filter (fun c -> c <= s) commit_times in
  match List.length committed_before with
  | 0 -> None (* not inserted yet *)
  | k when deleted_at_end && k = n -> None (* deleted *)
  | k -> Some (string_of_int k)

let prop_visibility_oracle =
  let gen =
    QCheck.Gen.(
      map2
        (fun times deleted ->
          (List.sort_uniq compare (List.map (fun t -> (t mod 1000) + 1) times), deleted))
        (list_size (int_range 1 8) small_nat)
        bool)
  in
  QCheck.Test.make ~name:"algorithm 1 vs history oracle" ~count:500
    (QCheck.make ~print:(fun (ts, d) ->
         Printf.sprintf "commits=[%s] deleted=%b" (String.concat ";" (List.map string_of_int ts)) d)
       gen)
    (fun (commit_times, deleted_at_end) ->
      commit_times = []
      ||
      let n = List.length commit_times in
      let head = build_history commit_times ~deleted_at_end in
      let current_value = string_of_int n in
      let reader = Clock.xid_of_start_ts 77 in
      List.for_all
        (fun s ->
          (* visible_version assembles into [current] in place: each
             probe needs its own buffer *)
          let got =
            visible ~xid:reader ~snapshot:s ~current:(str current_value)
              ~deleted_in_page:deleted_at_end ~head
          in
          let want = oracle commit_times ~deleted_at_end s in
          match (got, want) with
          | None, None -> true
          | Some row, Some v -> Value.to_string row.(0) = v
          | _ -> false)
        (List.init 25 (fun i -> i * 45)))

(* ------------------------------------------------------------------ *)
(* WAL record codec *)

let sample_records =
  [
    { Record.slot = 0; lsn = 0; gsn = 1; op = Record.Insert { table = 1; rid = 10; row = str "hello" } };
    {
      Record.slot = 3;
      lsn = 7;
      gsn = 2;
      op = Record.Update { table = 2; rid = 5; cols = [| (0, Value.Int 9); (2, Value.Null) |] };
    };
    { Record.slot = 1; lsn = 8; gsn = 3; op = Record.Delete { table = 1; rid = 10 } };
    { Record.slot = 1; lsn = 9; gsn = 4; op = Record.Commit { xid = Clock.xid_of_start_ts 4; cts = 11 } };
    { Record.slot = 2; lsn = 1; gsn = 5; op = Record.Abort { xid = Clock.xid_of_start_ts 5 } };
  ]

let test_record_roundtrip () =
  let buf = Buffer.create 256 in
  List.iter (Record.encode buf) sample_records;
  let b = Buffer.to_bytes buf in
  let decoded, stop = Record.decode_all b in
  check_int "count" (List.length sample_records) (List.length decoded);
  check_bool "clean eof" true (stop.Record.reason = Record.Eof);
  List.iter2
    (fun (a : Record.t) (b : Record.t) ->
      check_int "slot" a.Record.slot b.Record.slot;
      check_int "lsn" a.Record.lsn b.Record.lsn;
      check_int "gsn" a.Record.gsn b.Record.gsn;
      check_bool "op equal" true (a.Record.op = b.Record.op))
    sample_records decoded

let test_record_torn_tail_tolerated () =
  let buf = Buffer.create 256 in
  List.iter (Record.encode buf) sample_records;
  let b = Buffer.to_bytes buf in
  let cut = Bytes.sub b 0 (Bytes.length b - 4) in
  let decoded, stop = Record.decode_all cut in
  check_int "one record lost to the tear" (List.length sample_records - 1) (List.length decoded);
  check_bool "typed as torn" true (stop.Record.reason = Record.Torn);
  check_int "skipped bytes accounted" (Bytes.length cut - stop.Record.stop_offset)
    stop.Record.bytes_skipped

let test_record_corruption_detected () =
  let buf = Buffer.create 64 in
  Record.encode buf (List.hd sample_records);
  let b = Buffer.to_bytes buf in
  Bytes.set b (Bytes.length b - 2) 'X';
  check_bool "crc failure detected" true
    (try
       ignore (Record.decode b 0);
       false
     with Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Record codec fuzzing: arbitrary damage must yield typed results,
   never phantom records or uncaught exceptions. *)

let random_value rng =
  match Prng.int rng 5 with
  | 0 -> Value.Null
  | 1 -> Value.Int (Prng.int rng 1_000_000 - 500_000)
  | 2 -> Value.Float (float_of_int (Prng.int rng 1000) /. 7.0)
  | 3 -> Value.Bool (Prng.int rng 2 = 0)
  | _ -> Value.Str (String.init (Prng.int rng 20) (fun _ -> Char.chr (32 + Prng.int rng 95)))

let random_record rng =
  let op =
    match Prng.int rng 5 with
    | 0 ->
      Record.Insert
        {
          table = Prng.int rng 16;
          rid = Prng.int rng 10_000;
          row = Array.init (1 + Prng.int rng 6) (fun _ -> random_value rng);
        }
    | 1 ->
      Record.Update
        {
          table = Prng.int rng 16;
          rid = Prng.int rng 10_000;
          cols = Array.init (1 + Prng.int rng 4) (fun i -> (i, random_value rng));
        }
    | 2 -> Record.Delete { table = Prng.int rng 16; rid = Prng.int rng 10_000 }
    | 3 -> Record.Commit { xid = Clock.xid_of_start_ts (1 + Prng.int rng 1000); cts = Prng.int rng 100_000 }
    | _ -> Record.Abort { xid = Clock.xid_of_start_ts (1 + Prng.int rng 1000) }
  in
  { Record.slot = Prng.int rng 8; lsn = Prng.int rng 1_000_000; gsn = Prng.int rng 1_000_000; op }

let record_eq (a : Record.t) (b : Record.t) =
  a.Record.slot = b.Record.slot && a.Record.lsn = b.Record.lsn && a.Record.gsn = b.Record.gsn
  && a.Record.op = b.Record.op

let test_record_fuzz_roundtrip () =
  for seed = 1 to 50 do
    let rng = Prng.create ~seed in
    let records = List.init (1 + Prng.int rng 10) (fun _ -> random_record rng) in
    let buf = Buffer.create 512 in
    List.iter (Record.encode buf) records;
    let decoded, stop = Record.decode_all (Buffer.to_bytes buf) in
    check_bool "clean eof" true (stop.Record.reason = Record.Eof);
    check_int "skipped nothing" 0 stop.Record.bytes_skipped;
    check_int "count" (List.length records) (List.length decoded);
    List.iter2 (fun a b -> check_bool "exact roundtrip" true (record_eq a b)) records decoded
  done

(* The module-level encode scratch must be invisible: encoding a record
   is byte-identical no matter what was encoded through the scratch in
   between, and the bytes still decode back to the record. *)
let test_record_scratch_reuse () =
  let rng = Prng.create ~seed:41 in
  let encode_one r =
    let buf = Buffer.create 128 in
    Record.encode buf r;
    Buffer.contents buf
  in
  for _ = 1 to 1000 do
    let r = random_record rng in
    let first = encode_one r in
    (* dirty the scratch with unrelated records of different shapes/sizes *)
    for _ = 1 to 1 + Prng.int rng 3 do
      ignore (encode_one (random_record rng))
    done;
    let again = encode_one r in
    Alcotest.(check string) "byte-identical under scratch reuse" first again;
    let decoded, _ = Record.decode (Bytes.of_string again) 0 in
    check_bool "still decodes to the record" true (record_eq r decoded)
  done

(* Steady-state encode must not allocate per record: the body and CRC
   scratch are reused, varint/CRC arithmetic is unboxed. A small slack
   absorbs one-off lazy initialization. *)
let test_record_encode_alloc_free () =
  let r =
    {
      Record.slot = 1;
      lsn = 12;
      gsn = 34;
      op = Record.Update { table = 3; rid = 99; cols = [| (0, Value.Int 7); (1, Value.Int 8) |] };
    }
  in
  let buf = Buffer.create 256 in
  let loop () =
    for _ = 1 to 1000 do
      Buffer.clear buf;
      Record.encode buf r
    done
  in
  loop () (* warm up: scratch growth, CRC table *);
  let w0 = Gc.minor_words () in
  loop ();
  let dw = Gc.minor_words () -. w0 in
  if dw > 256.0 then
    Alcotest.failf "1000 encodes allocated %.0f minor words (budget 256)" dw

(* Cutting the encoding at EVERY byte offset must decode an exact record
   prefix: no phantom records, no exceptions, boundary cuts read as Eof
   and mid-record cuts as Torn with the remainder accounted. *)
let test_record_fuzz_truncation () =
  let rng = Prng.create ~seed:99 in
  let records = List.init 8 (fun _ -> random_record rng) in
  let buf = Buffer.create 512 in
  let boundaries =
    List.map
      (fun r ->
        Record.encode buf r;
        Buffer.length buf)
      records
  in
  let b = Buffer.to_bytes buf in
  for cut = 0 to Bytes.length b do
    let decoded, stop = Record.decode_all (Bytes.sub b 0 cut) in
    let full = List.length (List.filter (fun off -> off <= cut) boundaries) in
    check_int "prefix length" full (List.length decoded);
    List.iteri
      (fun i d -> check_bool "no phantom record" true (record_eq (List.nth records i) d))
      decoded;
    let on_boundary = cut = 0 || List.mem cut boundaries in
    check_bool "typed stop" true
      (stop.Record.reason = if on_boundary then Record.Eof else Record.Torn);
    check_int "remainder accounted" (cut - stop.Record.stop_offset) stop.Record.bytes_skipped
  done

(* Random single-bit damage anywhere in the file: decoding stays total
   and every record decoded from the undamaged prefix is exact. *)
let test_record_fuzz_bitflips () =
  let rng = Prng.create ~seed:7 in
  let records = List.init 8 (fun _ -> random_record rng) in
  let buf = Buffer.create 512 in
  let boundaries =
    List.map
      (fun r ->
        Record.encode buf r;
        Buffer.length buf)
      records
  in
  let clean = Buffer.to_bytes buf in
  for _trial = 1 to 200 do
    let b = Bytes.copy clean in
    let pos = Prng.int rng (Bytes.length b) in
    let bit = Prng.int rng 8 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    let decoded, stop = Record.decode_all b in
    (* records wholly before the damaged byte must decode exactly *)
    let intact = List.length (List.filter (fun off -> off <= pos) boundaries) in
    check_bool "undamaged prefix intact" true (List.length decoded >= intact);
    List.iteri
      (fun i d ->
        if i < intact then check_bool "prefix exact" true (record_eq (List.nth records i) d))
      decoded;
    check_bool "stop is typed" true
      (match stop.Record.reason with Record.Eof | Record.Torn | Record.Corrupt -> true);
    check_bool "offsets consistent" true
      (stop.Record.stop_offset + stop.Record.bytes_skipped = Bytes.length b)
  done

(* ------------------------------------------------------------------ *)
(* WAL manager: LSN/GSN, flushing, RFA *)

let make_wal ?(cfg = Wal.default_config) ?(n_slots = 4) () =
  let eng = Engine.create () in
  let dev = Device.create eng ~name:"wal" Device.pm9a3 in
  let store = Walstore.create dev in
  (eng, Wal.create eng ~store ~n_slots cfg)

let test_wal_lsn_monotone_per_slot () =
  let _, w = make_wal () in
  let l0 = Wal.append w ~slot:0 (Record.Delete { table = 1; rid = 1 }) ~gsn:1 in
  let l1 = Wal.append w ~slot:0 (Record.Delete { table = 1; rid = 2 }) ~gsn:2 in
  let l2 = Wal.append w ~slot:1 (Record.Delete { table = 1; rid = 3 }) ~gsn:3 in
  check_int "slot0 first" 0 l0;
  check_int "slot0 second" 1 l1;
  check_int "slot1 independent" 0 l2

let test_wal_gsn_lamport () =
  let _, w = make_wal () in
  let g1 = Wal.next_gsn w ~slot:0 ~page_gsn:0 in
  let g2 = Wal.next_gsn w ~slot:0 ~page_gsn:0 in
  check_bool "monotone in slot" true (g2 > g1);
  (* slot 1 touches a page stamped by slot 0: must jump past it *)
  let g3 = Wal.next_gsn w ~slot:1 ~page_gsn:g2 in
  check_bool "lamport advance" true (g3 > g2)

let test_wal_commit_durable_waits_for_device () =
  let eng, w = make_wal () in
  let committed_at = ref (-1) in
  let sched = Phoebe_runtime.Scheduler.create eng Phoebe_runtime.Scheduler.default_config in
  Phoebe_runtime.Scheduler.submit sched (fun () ->
      let gsn = Wal.next_gsn w ~slot:0 ~page_gsn:0 in
      let lsn = Wal.append w ~slot:0 (Record.Commit { xid = 1; cts = 1 }) ~gsn in
      Wal.commit_durable w ~slot:0 ~lsn ~needs_remote:false ~remote_gsn:0;
      committed_at := Engine.now eng);
  Phoebe_runtime.Scheduler.run_until_quiescent sched;
  (* PM9A3 latency is 90us: durability must not be instant. *)
  check_bool "waited for the device" true (!committed_at >= 90_000)

let test_wal_rfa_observe () =
  let _, w = make_wal () in
  (* no previous writer: no dependency *)
  check_bool "fresh page" false (Wal.observe_page w ~slot:0 ~page_gsn:0 ~writer_slot:(-1));
  (* own slot: no dependency *)
  check_bool "own slot" false (Wal.observe_page w ~slot:0 ~page_gsn:5 ~writer_slot:0);
  (* other slot, unflushed gsn: dependency *)
  ignore (Wal.append w ~slot:1 (Record.Delete { table = 1; rid = 1 }) ~gsn:5);
  check_bool "remote unflushed" true (Wal.observe_page w ~slot:0 ~page_gsn:5 ~writer_slot:1)

let test_wal_rfa_disabled_always_remote () =
  let _, w = make_wal ~cfg:{ Wal.default_config with Wal.rfa = false } () in
  check_bool "no rfa: always dependent" true
    (Wal.observe_page w ~slot:0 ~page_gsn:0 ~writer_slot:(-1))

let test_wal_remote_wait_until_floor () =
  let eng, w = make_wal () in
  let sched = Phoebe_runtime.Scheduler.create eng Phoebe_runtime.Scheduler.default_config in
  (* slot 1 buffers a record with gsn 5 but never reaches the group
     threshold; the remote-dependent commit on slot 0 must force it out. *)
  ignore (Wal.append w ~slot:1 (Record.Delete { table = 1; rid = 1 }) ~gsn:5);
  let done_ = ref false in
  Phoebe_runtime.Scheduler.submit sched (fun () ->
      let lsn = Wal.append w ~slot:0 (Record.Commit { xid = 1; cts = 2 }) ~gsn:6 in
      Wal.commit_durable w ~slot:0 ~lsn ~needs_remote:true ~remote_gsn:5;
      done_ := true);
  Phoebe_runtime.Scheduler.run_until_quiescent sched;
  check_bool "remote-dependent commit completed" true !done_;
  check_int "counted as remote wait" 1 (Wal.remote_waits w)

(* ------------------------------------------------------------------ *)
(* Recovery *)

let test_recovery_replays_committed_only () =
  let eng, w = make_wal ~n_slots:2 () in
  (* slot 0: txn A inserts rid 1, commits. txn B inserts rid 2, no commit
     (crash). slot 1: txn C inserts rid 3, aborts; txn D inserts rid 4, commits. *)
  ignore (Wal.append w ~slot:0 (Record.Insert { table = 1; rid = 1; row = str "a" }) ~gsn:1);
  ignore (Wal.append w ~slot:0 (Record.Commit { xid = 101; cts = 5 }) ~gsn:2);
  ignore (Wal.append w ~slot:0 (Record.Insert { table = 1; rid = 2; row = str "b" }) ~gsn:3);
  ignore (Wal.append w ~slot:1 (Record.Insert { table = 1; rid = 3; row = str "c" }) ~gsn:1);
  ignore (Wal.append w ~slot:1 (Record.Abort { xid = 102 }) ~gsn:2);
  ignore (Wal.append w ~slot:1 (Record.Insert { table = 1; rid = 4; row = str "d" }) ~gsn:3);
  ignore (Wal.append w ~slot:1 (Record.Commit { xid = 103; cts = 6 }) ~gsn:4);
  let flushed = ref false in
  Wal.flush_all w ~on_done:(fun () -> flushed := true);
  Engine.run eng;
  check_bool "flushed" true !flushed;
  let inserted = ref [] in
  let report =
    Recovery.replay (Wal.store w)
      {
        Recovery.insert = (fun ~table:_ ~rid row -> inserted := (rid, Value.to_string row.(0)) :: !inserted);
        update = (fun ~table:_ ~rid:_ _ -> Alcotest.fail "no updates expected");
        delete = (fun ~table:_ ~rid:_ -> Alcotest.fail "no deletes expected");
      }
  in
  check_int "committed txns" 2 (report.Recovery.committed_txns);
  check_int "ops replayed" 2 report.Recovery.ops_replayed;
  check_int "ops dropped" 2 report.Recovery.ops_dropped;
  Alcotest.(check (list (pair int string)))
    "only committed inserts, in gsn order" [ (1, "a"); (4, "d") ] (List.rev !inserted)

let test_recovery_gsn_order_across_slots () =
  let eng, w = make_wal ~n_slots:2 () in
  (* Same rid updated by two slots; GSNs order them. *)
  ignore (Wal.append w ~slot:0 (Record.Update { table = 1; rid = 1; cols = [| (0, Value.Int 1) |] }) ~gsn:1);
  ignore (Wal.append w ~slot:0 (Record.Commit { xid = 201; cts = 2 }) ~gsn:2);
  ignore (Wal.append w ~slot:1 (Record.Update { table = 1; rid = 1; cols = [| (0, Value.Int 2) |] }) ~gsn:3);
  ignore (Wal.append w ~slot:1 (Record.Commit { xid = 202; cts = 4 }) ~gsn:4);
  let flushed = ref false in
  Wal.flush_all w ~on_done:(fun () -> flushed := true);
  Engine.run eng;
  let last = ref 0 in
  ignore
    (Recovery.replay (Wal.store w)
       {
         Recovery.insert = (fun ~table:_ ~rid:_ _ -> ());
         update = (fun ~table:_ ~rid:_ cols -> (match cols.(0) with _, Value.Int v -> last := v | _ -> ()));
         delete = (fun ~table:_ ~rid:_ -> ());
       });
  check_int "later gsn wins" 2 !last

(* A checkpoint frontier can only land on a transaction boundary. A
   frontier pointing at a data record means the snapshot and the WAL
   disagree — replaying from it would split a transaction — so the
   guard must refuse loudly rather than recover wrong state. *)
let test_recovery_frontier_guard () =
  let eng, w = make_wal ~n_slots:1 () in
  ignore (Wal.append w ~slot:0 (Record.Insert { table = 1; rid = 1; row = str "a" }) ~gsn:1);
  ignore (Wal.append w ~slot:0 (Record.Insert { table = 1; rid = 2; row = str "b" }) ~gsn:2);
  ignore (Wal.append w ~slot:0 (Record.Commit { xid = 301; cts = 5 }) ~gsn:3);
  let flushed = ref false in
  Wal.flush_all w ~on_done:(fun () -> flushed := true);
  Engine.run eng;
  check_bool "flushed" true !flushed;
  let apply =
    {
      Recovery.insert = (fun ~table:_ ~rid:_ _ -> ());
      update = (fun ~table:_ ~rid:_ _ -> ());
      delete = (fun ~table:_ ~rid:_ -> ());
    }
  in
  (* lsn 1 is the second Insert: mid-transaction, must be rejected *)
  check_bool "mid-transaction frontier raises Bug" true
    (try
       ignore (Recovery.replay ~after:(fun _ -> 1) (Wal.store w) apply);
       false
     with Phoebe_util.Phoebe_error.Bug _ -> true);
  (* lsn 2 is the Commit: a legal whole-transaction frontier *)
  let report = Recovery.replay ~after:(fun _ -> 2) (Wal.store w) apply in
  check_int "nothing left to replay past the commit" 0 report.Recovery.ops_replayed

(* ------------------------------------------------------------------ *)
(* Table locks: the wait/wake surface over the internal queue *)

module Tablelock = Phoebe_txn.Tablelock
module Scheduler = Phoebe_runtime.Scheduler

let test_tablelock_wait_wake () =
  let eng = Engine.create () in
  let s =
    Scheduler.create eng { Scheduler.default_config with Scheduler.n_workers = 1; slots_per_worker = 4 }
  in
  let tl = Tablelock.create () in
  Tablelock.add_holder tl Tablelock.Exclusive ~xid:1;
  let woke = ref [] in
  for _ = 1 to 2 do
    Scheduler.submit s (fun () ->
        (* bind before consing: [!woke] must be read after the wait *)
        let r = Tablelock.wait tl in
        woke := r :: !woke)
  done;
  Engine.schedule eng ~delay:5_000 (fun () ->
      check_int "both parked on the lock" 2 (Tablelock.waiter_count tl);
      (* releasing the holder wakes every waiter *)
      Tablelock.remove_holder tl ~xid:1);
  Scheduler.run_until_quiescent s;
  check_int "no waiters left" 0 (Tablelock.waiter_count tl);
  (match !woke with
  | [ Scheduler.Signalled; Scheduler.Signalled ] -> ()
  | _ -> Alcotest.fail "both waiters must wake Signalled");
  check_bool "lock is free" true (Tablelock.is_free_for tl Tablelock.Exclusive ~xid:2)

let test_tablelock_wait_deadline () =
  let eng = Engine.create () in
  let s =
    Scheduler.create eng { Scheduler.default_config with Scheduler.n_workers = 1; slots_per_worker = 4 }
  in
  let tl = Tablelock.create () in
  Tablelock.add_holder tl Tablelock.Exclusive ~xid:1;
  let woke = ref None in
  Scheduler.submit s (fun () ->
      woke := Some (Tablelock.wait ~deadline:(Scheduler.At 10_000) tl));
  Scheduler.run_until_quiescent s;
  check_bool "timed out behind a stuck holder" true (!woke = Some Scheduler.Timed_out);
  check_int "stale waiter not counted" 0 (Tablelock.waiter_count tl)

let () =
  Alcotest.run "phoebe_txn"
    [
      ( "tablelock",
        [
          Alcotest.test_case "wait/wake on release" `Quick test_tablelock_wait_wake;
          Alcotest.test_case "wait observes deadline" `Quick test_tablelock_wait_deadline;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotone" `Quick test_clock_monotone;
          Alcotest.test_case "xid encoding" `Quick test_xid_encoding;
          Alcotest.test_case "xid above timestamps" `Quick test_xid_compares_above_timestamps;
        ] );
      ( "undo",
        [
          Alcotest.test_case "txn chain" `Quick test_undo_txn_chain;
          Alcotest.test_case "committed flag" `Quick test_undo_committed_flag;
          Alcotest.test_case "freelist recycle clears fields" `Quick
            test_undo_freelist_recycle_clears_fields;
        ] );
      ( "twin",
        [
          Alcotest.test_case "entries" `Quick test_twin_entries;
          Alcotest.test_case "max modifier" `Quick test_twin_max_modifier;
        ] );
      ( "visibility",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_visibility_oracle;
          Alcotest.test_case "paper example 6.2" `Quick test_example_6_2;
          Alcotest.test_case "own writes" `Quick test_visibility_own_writes;
          Alcotest.test_case "uncommitted insert" `Quick test_visibility_uncommitted_insert_invisible;
          Alcotest.test_case "deleted row, old snapshot" `Quick
            test_visibility_deleted_row_for_old_snapshot;
          Alcotest.test_case "no chain" `Quick test_visibility_no_chain;
          Alcotest.test_case "check_write" `Quick test_check_write;
        ] );
      ( "wal_records",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_record_torn_tail_tolerated;
          Alcotest.test_case "corruption" `Quick test_record_corruption_detected;
          Alcotest.test_case "fuzz roundtrip" `Quick test_record_fuzz_roundtrip;
          Alcotest.test_case "scratch reuse byte-identical" `Quick test_record_scratch_reuse;
          Alcotest.test_case "encode allocation-free" `Quick test_record_encode_alloc_free;
          Alcotest.test_case "fuzz truncation" `Quick test_record_fuzz_truncation;
          Alcotest.test_case "fuzz bit flips" `Quick test_record_fuzz_bitflips;
        ] );
      ( "wal",
        [
          Alcotest.test_case "lsn per slot" `Quick test_wal_lsn_monotone_per_slot;
          Alcotest.test_case "gsn lamport" `Quick test_wal_gsn_lamport;
          Alcotest.test_case "commit waits for device" `Quick test_wal_commit_durable_waits_for_device;
          Alcotest.test_case "rfa observe" `Quick test_wal_rfa_observe;
          Alcotest.test_case "rfa disabled" `Quick test_wal_rfa_disabled_always_remote;
          Alcotest.test_case "remote wait until floor" `Quick test_wal_remote_wait_until_floor;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "committed only" `Quick test_recovery_replays_committed_only;
          Alcotest.test_case "gsn order across slots" `Quick test_recovery_gsn_order_across_slots;
          Alcotest.test_case "frontier guard" `Quick test_recovery_frontier_guard;
        ] );
    ]
