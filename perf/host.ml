(* Host clocks, and the calibration that makes host times comparable
   across runs on a shared machine.

   On a shared 2-core x86-64 virtual machine, the CPU time of the same
   run varies by up to 15% between runs as neighbours load the shared
   caches. A fixed probe loop, timed next to each measurement, slows with
   it, so the bounded host times are in reference seconds: CPU seconds
   times [reference_s] over the loop's time around them. The loop runs no
   kernel code, so a kernel change moves reference seconds and not the
   loop. perf/README.md gives the measurements behind this. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Process CPU seconds, user plus system. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [f ()] and its CPU seconds. *)
let timed f =
  let c0 = cpu_s () in
  let x = f () in
  (x, cpu_s () -. c0)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

module Int_map = Map.Make (Int)

let key i = (i * 7919) land 0xfffff

(* A balanced tree of 64k entries, about 3 MB: probing it chases
   pointers through the shared caches, as the kernel does. Of the loops
   tried (this one, an arithmetic loop and a walk over 32 MB), this one's
   time tracked the kernel's most closely. *)
let probed =
  lazy
    (let m = ref Int_map.empty in
     for i = 1 to 65_536 do
       m := Int_map.add (key i) i !m
     done;
     !m)

let probe_loop () =
  let m = Lazy.force probed in
  let c0 = cpu_s () in
  let hits = ref 0 in
  for i = 1 to 40_000 do
    if Int_map.mem (key i) m then incr hits
  done;
  ignore (Sys.opaque_identity !hits);
  cpu_s () -. c0

(* The probe loop's CPU time on that machine, unloaded. *)
let reference_s = 0.008

(* The probe loop's CPU seconds; without [on] (the self-test, whose host
   times mean nothing) [reference_s], at no cost. *)
let calibration ~on = if on then probe_loop () else reference_s

(* [raw_s] CPU seconds in reference seconds, [cal] being the probe
   loop's time measured around them. *)
let reference ~cal raw_s = raw_s *. reference_s /. cal
