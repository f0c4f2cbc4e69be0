(* Tests for the simulated NVMe device model, the page store and the WAL
   store: service-time maths, channel parallelism, queueing, throughput
   accounting, and content durability semantics. *)
module Engine = Phoebe_sim.Engine
module Device = Phoebe_io.Device
module Pagestore = Phoebe_io.Pagestore
module Walstore = Phoebe_io.Walstore

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_dev ?(channels = 2) ?(iops = 100_000.0) ?(latency_us = 100.0) eng =
  Device.create eng ~name:"dev"
    { Device.channels; read_mb_s = 1000.0; write_mb_s = 500.0; iops; latency_us }

let test_completion_time () =
  let eng = Engine.create () in
  let dev = small_dev eng in
  let completed_at = ref (-1) in
  (* 500 KB at 500 MB/s = 1ms service + 100us latency *)
  Device.submit dev Device.Write ~bytes:500_000 ~on_complete:(fun () -> completed_at := Engine.now eng);
  Engine.run eng;
  check_int "service + latency" 1_100_000 !completed_at

let test_iops_floor () =
  let eng = Engine.create () in
  let dev = small_dev ~iops:10_000.0 eng in
  let completed_at = ref (-1) in
  (* tiny write: service time floors at 1/iops = 100us *)
  Device.submit dev Device.Write ~bytes:16 ~on_complete:(fun () -> completed_at := Engine.now eng);
  Engine.run eng;
  check_int "iops floor + latency" 200_000 !completed_at

let test_channel_parallelism () =
  let eng = Engine.create () in
  let dev = small_dev ~channels:2 eng in
  let finishes = ref [] in
  for _ = 1 to 4 do
    Device.submit dev Device.Write ~bytes:500_000 ~on_complete:(fun () ->
        finishes := Engine.now eng :: !finishes)
  done;
  Engine.run eng;
  (* two channels: pairs complete at 1.1ms and 2.1ms *)
  (match List.sort compare !finishes with
  | [ a; b; c; d ] ->
    check_int "first pair" 1_100_000 a;
    check_int "first pair" 1_100_000 b;
    check_int "second pair" 2_100_000 c;
    check_int "second pair" 2_100_000 d
  | _ -> Alcotest.fail "expected 4 completions");
  check_int "bytes accounted" 2_000_000 (Device.total_bytes dev Device.Write);
  check_int "ops accounted" 4 (Device.total_ops dev Device.Write)

(* A write goes to the channel that frees earliest: behind a long write
   on one channel, two short ones run back to back on the other. *)
let test_earliest_free_channel () =
  let eng = Engine.create () in
  let dev = small_dev ~channels:2 eng in
  let finishes = ref [] in
  List.iter
    (fun bytes ->
      Device.submit dev Device.Write ~bytes ~on_complete:(fun () ->
          finishes := (bytes, Engine.now eng) :: !finishes))
    [ 1_000_000; 50_000; 50_001 ];
  Engine.run eng;
  (* 50 KB at 500 MB/s = 100us service + 100us latency *)
  check_bool "the short writes shared the idle channel" true
    (List.sort compare !finishes = [ (50_000, 200_000); (50_001, 300_002); (1_000_000, 2_100_000) ])

let test_no_channels_rejected () =
  check_bool "a device with no channels is rejected" true
    (try
       ignore (small_dev ~channels:0 (Engine.create ()));
       false
     with Invalid_argument _ -> true)

let test_throughput_series () =
  let eng = Engine.create () in
  let dev = small_dev eng in
  for _ = 1 to 10 do
    Device.submit dev Device.Write ~bytes:100_000 ~on_complete:(fun () -> ())
  done;
  Engine.run eng;
  let series = Device.throughput_series dev Device.Write in
  check_bool "series non-empty" true (series <> []);
  let total = List.fold_left (fun acc (_, mbps) -> acc +. mbps) 0.0 series in
  check_bool "positive throughput" true (total > 0.0)

let test_pagestore_roundtrip () =
  let eng = Engine.create () in
  let store = Pagestore.create (small_dev eng) in
  Pagestore.write store ~page_id:7 (Bytes.of_string "hello page");
  Engine.run eng;
  check_bool "mem" true (Pagestore.mem store ~page_id:7);
  Alcotest.(check string) "content" "hello page" (Bytes.to_string (Pagestore.read store ~page_id:7));
  check_int "count" 1 (Pagestore.page_count store);
  check_int "bytes" 10 (Pagestore.stored_bytes store);
  (* overwrite adjusts accounting *)
  Pagestore.write store ~page_id:7 (Bytes.of_string "x");
  check_int "bytes after overwrite" 1 (Pagestore.stored_bytes store);
  Pagestore.delete store ~page_id:7;
  check_int "deleted" 0 (Pagestore.page_count store);
  check_bool "read missing raises" true
    (try
       ignore (Pagestore.read store ~page_id:7);
       false
     with Not_found -> true)

let test_pagestore_write_isolated_from_caller () =
  let eng = Engine.create () in
  let store = Pagestore.create (small_dev eng) in
  let buf = Bytes.of_string "abc" in
  Pagestore.write store ~page_id:1 buf;
  Bytes.set buf 0 'X';
  Alcotest.(check string) "store kept its own copy" "abc"
    (Bytes.to_string (Pagestore.read store ~page_id:1))

let test_walstore_append_order () =
  let eng = Engine.create () in
  let store = Walstore.create (small_dev eng) in
  let durable = ref [] in
  Walstore.append store ~file:3 (Bytes.of_string "aaa") ~on_durable:(fun () -> durable := "a" :: !durable);
  Walstore.append store ~file:3 (Bytes.of_string "bbb") ~on_durable:(fun () -> durable := "b" :: !durable);
  Walstore.append store ~file:5 (Bytes.of_string "cc") ~on_durable:(fun () -> durable := "c" :: !durable);
  Engine.run eng;
  check_int "all durable" 3 (List.length !durable);
  Alcotest.(check string) "file contents in order" "aaabbb"
    (Bytes.to_string (Walstore.contents store ~file:3));
  Alcotest.(check string) "other file separate" "cc" (Bytes.to_string (Walstore.contents store ~file:5));
  Alcotest.(check (list int)) "files listed" [ 3; 5 ] (Walstore.files store);
  check_int "total appended" 8 (Walstore.total_appended store)

let test_busy_fraction () =
  let eng = Engine.create () in
  let dev = small_dev ~channels:1 eng in
  Device.submit dev Device.Write ~bytes:500_000 ~on_complete:(fun () -> ());
  Engine.run_until eng ~time:2_000_000;
  (* 1ms busy of 2ms elapsed on one channel *)
  Alcotest.(check (float 0.05)) "half busy" 0.5 (Device.busy_fraction dev)

let test_busy_fraction_saturates () =
  let eng = Engine.create () in
  let dev = small_dev ~channels:1 eng in
  (* book the single channel far past the observation window: 8 x 1ms *)
  for _ = 1 to 8 do
    Device.submit dev Device.Write ~bytes:500_000 ~on_complete:(fun () -> ())
  done;
  Engine.run_until eng ~time:2_000_000;
  let b = Device.busy_fraction dev in
  Alcotest.(check bool) "never exceeds 1.0" true (b <= 1.0);
  Alcotest.(check (float 0.05)) "fully busy" 1.0 b

let test_batch_amortizes_iops () =
  (* 8 small pages, one channel, 10k IOPS (100us floor per op): issued
     one by one the floor serialises them, 8 x 100us; one vectored batch
     pays the floor once plus summed bandwidth. *)
  let sequential =
    let eng = Engine.create () in
    let dev = small_dev ~channels:1 ~iops:10_000.0 eng in
    let last = ref 0 in
    for _ = 1 to 8 do
      Device.submit dev Device.Write ~bytes:512 ~on_complete:(fun () -> last := Engine.now eng)
    done;
    Engine.run eng;
    !last
  in
  let batched =
    let eng = Engine.create () in
    let dev = small_dev ~channels:1 ~iops:10_000.0 eng in
    let last = ref 0 in
    Device.submit_batch dev Device.Write
      ~sizes:(List.init 8 (fun _ -> 512))
      ~on_complete:(fun _ -> last := Engine.now eng);
    Engine.run eng;
    !last
  in
  check_int "sequential: 8 iops floors + latency" 900_000 sequential;
  check_int "batched: one iops floor + latency" 200_000 batched;
  check_bool "batch strictly faster" true (batched < sequential)

let test_batch_completion_order () =
  let eng = Engine.create () in
  let dev = small_dev eng in
  let order = ref [] in
  let times = ref [] in
  Device.submit_batch dev Device.Write
    ~sizes:[ 1000; 2000; 3000; 4000 ]
    ~on_complete:(fun i ->
      order := i :: !order;
      times := Engine.now eng :: !times);
  Engine.run eng;
  Alcotest.(check (list int)) "completions fan out in submission order" [ 0; 1; 2; 3 ]
    (List.rev !order);
  check_bool "all at the same instant" true
    (match !times with t :: rest -> List.for_all (( = ) t) rest | [] -> false);
  check_int "one submission" 1 (Device.total_batches dev Device.Write);
  check_int "four ops" 4 (Device.total_ops dev Device.Write);
  check_int "bytes summed" 10_000 (Device.total_bytes dev Device.Write)

let test_batch_empty_is_noop () =
  let eng = Engine.create () in
  let dev = small_dev eng in
  Device.submit_batch dev Device.Write ~sizes:[] ~on_complete:(fun _ -> Alcotest.fail "no ops");
  Engine.run eng;
  check_int "no batch recorded" 0 (Device.total_batches dev Device.Write)

let test_pagestore_write_batch () =
  let eng = Engine.create () in
  let store = Pagestore.create (small_dev eng) in
  let done_ = ref false in
  let pages = List.init 5 (fun i -> (i + 1, Bytes.of_string (Printf.sprintf "page-%d" (i + 1)))) in
  Pagestore.write_batch store pages ~on_complete:(fun () -> done_ := true);
  (* contents are visible immediately (the store image is the source of
     truth for faults); completion waits for the device *)
  Alcotest.(check string) "content durable" "page-3" (Bytes.to_string (Pagestore.read store ~page_id:3));
  Engine.run eng;
  check_bool "completion fired" true !done_;
  check_int "all pages stored" 5 (Pagestore.page_count store);
  check_int "one device submission" 1
    (Device.total_batches (Pagestore.device store) Device.Write)

(* ------------------------------------------------------------------ *)
(* Durable frontiers and crash semantics *)

let test_walstore_durable_frontier () =
  let eng = Engine.create () in
  let ws = Walstore.create (small_dev eng) in
  let acked = ref false in
  Walstore.append ws ~file:0 (Bytes.make 1000 'a') ~on_durable:(fun () -> acked := true);
  (* appended but the device has not completed: volatile tail *)
  check_int "frontier still zero" 0 (Walstore.durable_frontier ws ~file:0);
  check_int "tail pending" 1000 (Walstore.pending_bytes ws ~file:0);
  check_int "live view sees the tail" 1000 (Bytes.length (Walstore.contents ws ~file:0));
  check_bool "no ack yet" false !acked;
  Engine.run eng;
  check_bool "ack after completion" true !acked;
  check_int "frontier advanced" 1000 (Walstore.durable_frontier ws ~file:0);
  check_int "no tail left" 0 (Walstore.pending_bytes ws ~file:0)

let test_walstore_crash_drops_tail () =
  let eng = Engine.create () in
  let ws = Walstore.create (small_dev eng) in
  Walstore.append ws ~file:0 (Bytes.make 700 'a') ~on_durable:ignore;
  Engine.run eng;
  (* second extent stays in flight: power is cut before its completion *)
  Walstore.append ws ~file:0 (Bytes.make 300 'b') ~on_durable:(fun () ->
      Alcotest.fail "ack must not fire across a crash");
  let report = Walstore.crash ws in
  Engine.clear eng;
  Alcotest.(check (list (triple int int int))) "durable survives, tail lost" [ (0, 700, 300) ] report;
  check_int "contents truncated" 700 (Bytes.length (Walstore.contents ws ~file:0));
  check_int "crash counted" 1 (Walstore.crash_count ws);
  (* the store keeps working after the crash *)
  Walstore.append ws ~file:0 (Bytes.make 100 'c') ~on_durable:ignore;
  Engine.run eng;
  check_int "frontier resumes from the cut" 800 (Walstore.durable_frontier ws ~file:0)

let test_walstore_crash_tear () =
  let eng = Engine.create () in
  let ws = Walstore.create (small_dev eng) in
  let len = 4 * Device.sector_size in
  Walstore.append ws ~file:0 (Bytes.make len 'x') ~on_durable:ignore;
  let tear = Phoebe_util.Prng.create ~seed:7 in
  (match Walstore.crash ~tear ws with
  | [ (0, survive, lost) ] ->
    check_int "nothing vanishes" len (survive + lost);
    check_bool "tear is sector-aligned" true (survive mod Device.sector_size = 0);
    check_int "contents match the torn prefix" survive
      (Bytes.length (Walstore.contents ws ~file:0))
  | r -> Alcotest.failf "unexpected crash report (%d files)" (List.length r));
  Engine.clear eng

(* The store keeps each file as fixed-size chunks; a plain buffer per
   file is the reference. Extents range from a few bytes to more than a
   chunk, so appends straddle chunk boundaries, and crashes (every other
   one torn) cut files mid-chunk before appends resume. *)
let test_walstore_chunks_vs_model () =
  let rng = Phoebe_util.Prng.create ~seed:31 in
  let eng = Engine.create () in
  let ws = Walstore.create (small_dev eng) in
  let files = 3 in
  let model = Array.init files (fun _ -> Buffer.create 16) in
  let check_contents what =
    Array.iteri
      (fun file m ->
        if Buffer.length m <> Bytes.length (Walstore.contents ws ~file) then
          Alcotest.failf "%s: file %d holds %d bytes, model %d" what file
            (Bytes.length (Walstore.contents ws ~file)) (Buffer.length m);
        check_bool (Printf.sprintf "%s: file %d bytes" what file) true
          (String.equal (Buffer.contents m) (Bytes.to_string (Walstore.contents ws ~file))))
      model
  in
  for round = 1 to 6 do
    for _ = 1 to 40 do
      let file = Phoebe_util.Prng.int rng files in
      let len =
        if Phoebe_util.Prng.int rng 4 = 0 then Phoebe_util.Prng.int rng 100_000
        else Phoebe_util.Prng.int rng 700
      in
      let b = Bytes.init len (fun _ -> Char.chr (Phoebe_util.Prng.int rng 256)) in
      Buffer.add_bytes model.(file) b;
      Walstore.append ws ~file b ~on_durable:ignore;
      if Phoebe_util.Prng.int rng 3 = 0 then
        Engine.run_until eng ~time:(Engine.now eng + Phoebe_util.Prng.int rng 2_000_000)
    done;
    check_contents "live view";
    let durable = Array.init files (fun file -> Walstore.durable_frontier ws ~file) in
    let tear = if round mod 2 = 0 then Some (Phoebe_util.Prng.create ~seed:round) else None in
    let report = Walstore.crash ?tear ws in
    Engine.clear eng;
    List.iter
      (fun (file, survive, lost) ->
        let m = model.(file) in
        check_int "nothing vanishes" (Buffer.length m) (survive + lost);
        if tear = None then check_int "untorn crash keeps the frontier" durable.(file) survive
        else check_bool "torn crash keeps at least the frontier" true (survive >= durable.(file));
        let kept = Buffer.sub m 0 survive in
        Buffer.clear m;
        Buffer.add_string m kept)
      report;
    check_contents "after crash"
  done

let fault_dev ?(faults = { Device.fault_seed = 3; torn_write_p = 0.0; lost_ack_p = 0.0;
                           delayed_ack_p = 0.0; max_delay_ns = 0 }) eng =
  Device.create eng ~name:"faulty" ~faults
    { Device.channels = 2; read_mb_s = 1000.0; write_mb_s = 500.0; iops = 100_000.0;
      latency_us = 100.0 }

let test_device_torn_write () =
  let eng = Engine.create () in
  let dev =
    fault_dev eng
      ~faults:{ Device.fault_seed = 11; torn_write_p = 1.0; lost_ack_p = 0.0;
                delayed_ack_p = 0.0; max_delay_ns = 0 }
  in
  let outcomes = ref [] in
  Device.submit_writes dev ~sizes:[ 4 * Device.sector_size ]
    ~on_outcome:(fun i o -> outcomes := (i, o) :: !outcomes);
  Engine.run eng;
  (match !outcomes with
  | [ (0, Device.W_torn media) ] ->
    check_bool "strict prefix" true (media < 4 * Device.sector_size);
    check_bool "sector aligned" true (media mod Device.sector_size = 0)
  | _ -> Alcotest.fail "expected exactly one torn outcome");
  let torn, lost, delayed = Device.fault_counts dev in
  check_int "torn counted" 1 torn;
  check_int "no lost acks" 0 lost;
  check_int "no delays" 0 delayed

let test_device_fault_determinism () =
  let run () =
    let eng = Engine.create () in
    let dev =
      fault_dev eng
        ~faults:{ Device.fault_seed = 42; torn_write_p = 0.3; lost_ack_p = 0.3;
                  delayed_ack_p = 0.3; max_delay_ns = 50_000 }
    in
    let trace = ref [] in
    for _ = 1 to 20 do
      Device.submit_writes dev ~sizes:[ 2048 ] ~on_outcome:(fun i o ->
          let tag =
            match o with
            | Device.W_done -> 0
            | Device.W_torn m -> 100 + m
            | Device.W_lost_ack -> 1
          in
          trace := (i, tag, Engine.now eng) :: !trace)
    done;
    Engine.run eng;
    (List.rev !trace, Device.fault_counts dev)
  in
  let a = run () and b = run () in
  check_bool "same seed, same outcome sequence" true (a = b);
  let _, (torn, lost, delayed) = a in
  check_bool "faults actually injected" true (torn + lost + delayed > 0)

let test_pagestore_crash_keeps_durable_images () =
  let eng = Engine.create () in
  let store = Pagestore.create (small_dev eng) in
  Pagestore.write store ~page_id:1 (Bytes.of_string "v1");
  Engine.run eng;
  check_int "one page durable" 1 (Pagestore.durable_page_count store);
  (* overwrite in flight: latest view updates, durable image does not *)
  Pagestore.write store ~page_id:1 (Bytes.of_string "v2");
  Pagestore.write store ~page_id:2 (Bytes.of_string "new");
  Alcotest.(check string) "live read sees latest" "v2" (Bytes.to_string (Pagestore.read store ~page_id:1));
  let lost = Pagestore.crash store in
  Engine.clear eng;
  check_int "volatile-only pages dropped" 1 lost;
  Alcotest.(check string) "durable image survives" "v1" (Bytes.to_string (Pagestore.read store ~page_id:1));
  check_bool "in-flight new page gone" false (Pagestore.mem store ~page_id:2)

(* A deleted page keeps its durable image until the next sync: a crash
   in between brings it back (the last snapshot may still name it), and
   after the sync it is gone for good. *)
let test_pagestore_delete_durable_until_sync () =
  let eng = Engine.create () in
  let store = Pagestore.create (small_dev eng) in
  Pagestore.write store ~page_id:1 (Bytes.of_string "leaf");
  Pagestore.write store ~page_id:2 (Bytes.of_string "kept");
  Engine.run eng;
  Pagestore.delete store ~page_id:1;
  check_bool "gone from the latest view" false (Pagestore.mem store ~page_id:1);
  ignore (Pagestore.crash store);
  Alcotest.(check string) "a crash before the sync restores it" "leaf"
    (Bytes.to_string (Pagestore.read store ~page_id:1));
  Pagestore.delete store ~page_id:1;
  Pagestore.sync store ~on_complete:ignore;
  Engine.run eng;
  check_int "the sync dropped its durable image" 1 (Pagestore.durable_page_count store);
  ignore (Pagestore.crash store);
  check_bool "a crash after the sync does not" false (Pagestore.mem store ~page_id:1);
  check_bool "other pages untouched" true (Pagestore.mem store ~page_id:2)

let test_pagestore_torn_write_is_atomic () =
  let eng = Engine.create () in
  let store =
    Pagestore.create
      (fault_dev eng
         ~faults:{ Device.fault_seed = 11; torn_write_p = 1.0; lost_ack_p = 0.0;
                   delayed_ack_p = 0.0; max_delay_ns = 0 })
  in
  Pagestore.write store ~page_id:1 (Bytes.make 2048 'a');
  (* every write tears, and every tear schedules a timeout + rewrite:
     bound the run (a device that tears 100% of writes never completes
     an fsync in reality either) *)
  Engine.run_until eng ~time:50_000_000;
  (* the page never becomes durable, but the old (absent) image is
     intact — full-page-write torn-page protection *)
  check_int "nothing durable" 0 (Pagestore.durable_page_count store);
  let torn, _ = Pagestore.fault_stats store in
  check_bool "tear recorded and retried" true (torn >= 2);
  ignore (Pagestore.crash store);
  Engine.clear eng;
  check_bool "torn page absent after crash" false (Pagestore.mem store ~page_id:1)

let () =
  Alcotest.run "phoebe_io"
    [
      ( "device",
        [
          Alcotest.test_case "completion time" `Quick test_completion_time;
          Alcotest.test_case "iops floor" `Quick test_iops_floor;
          Alcotest.test_case "channel parallelism" `Quick test_channel_parallelism;
          Alcotest.test_case "earliest-free channel" `Quick test_earliest_free_channel;
          Alcotest.test_case "no channels rejected" `Quick test_no_channels_rejected;
          Alcotest.test_case "throughput series" `Quick test_throughput_series;
          Alcotest.test_case "busy fraction" `Quick test_busy_fraction;
          Alcotest.test_case "busy fraction saturates" `Quick test_busy_fraction_saturates;
          Alcotest.test_case "batch amortizes iops" `Quick test_batch_amortizes_iops;
          Alcotest.test_case "batch completion order" `Quick test_batch_completion_order;
          Alcotest.test_case "empty batch" `Quick test_batch_empty_is_noop;
        ] );
      ( "pagestore",
        [
          Alcotest.test_case "roundtrip" `Quick test_pagestore_roundtrip;
          Alcotest.test_case "copy isolation" `Quick test_pagestore_write_isolated_from_caller;
          Alcotest.test_case "write batch" `Quick test_pagestore_write_batch;
        ] );
      ( "walstore",
        [
          Alcotest.test_case "append order" `Quick test_walstore_append_order;
          Alcotest.test_case "chunks vs model" `Quick test_walstore_chunks_vs_model;
        ] );
      ( "crash",
        [
          Alcotest.test_case "durable frontier" `Quick test_walstore_durable_frontier;
          Alcotest.test_case "crash drops tail" `Quick test_walstore_crash_drops_tail;
          Alcotest.test_case "crash tear" `Quick test_walstore_crash_tear;
          Alcotest.test_case "pagestore crash" `Quick test_pagestore_crash_keeps_durable_images;
          Alcotest.test_case "pagestore torn write" `Quick test_pagestore_torn_write_is_atomic;
          Alcotest.test_case "pagestore delete durable until sync" `Quick
            test_pagestore_delete_durable_until_sync;
        ] );
      ( "faults",
        [
          Alcotest.test_case "torn write" `Quick test_device_torn_write;
          Alcotest.test_case "determinism" `Quick test_device_fault_determinism;
        ] );
    ]
