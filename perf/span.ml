(* Host-time spans the benchmark records around its own calls into the
   kernel. Seen from outside, host time only splits into set-up,
   submission, engine driving, checks and recovery; where the time goes
   inside the engine comes from the probes (probes.ml) set against the
   per-transaction operation counts.

   Recording is off outside [record], so untraced runs pay nothing for
   it. Spans stay in memory until [to_json]. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at top level *)
  run : int;
  start_ns : int;
  mutable stop_ns : int;
  mutable child_ns : int;  (** covered by child spans and submit calls *)
}

let enabled = ref false
let run_id = ref 0
let next_id = ref 0
let finished : span list ref = ref []
let stack : span list ref = ref []
let submit_calls = ref 0
let submit_ns = ref 0

(* Records the spans of [f] under a fresh run id. *)
let record f =
  incr run_id;
  enabled := true;
  Fun.protect f ~finally:(fun () -> enabled := false)

let charge_parent ns = match !stack with p :: _ -> p.child_ns <- p.child_ns + ns | [] -> ()

let with_ name f =
  if not !enabled then f ()
  else begin
    let s =
      {
        id = (incr next_id; !next_id);
        name;
        parent = (match !stack with p :: _ -> p.id | [] -> -1);
        run = !run_id;
        start_ns = Host.now_ns ();
        stop_ns = 0;
        child_ns = 0;
      }
    in
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.stop_ns <- Host.now_ns ();
        stack := List.tl !stack;
        charge_parent (s.stop_ns - s.start_ns);
        finished := s :: !finished)
  end

(* Submissions are too many to keep one span each: they are summed into
   a call count and total, and charged to the enclosing span. *)
let submit f =
  if not !enabled then f ()
  else begin
    let t0 = Host.now_ns () in
    Fun.protect f ~finally:(fun () ->
        let ns = Host.now_ns () - t0 in
        incr submit_calls;
        submit_ns := !submit_ns + ns;
        charge_parent ns)
  end

let self_ns s = s.stop_ns - s.start_ns - s.child_ns

(* Self time summed over every span of [name] in run [run]. *)
let self_total ~run name =
  List.fold_left (fun acc s -> if s.run = run && s.name = name then acc + self_ns s else acc) 0 !finished

let submit_ns_per_call () = if !submit_calls = 0 then 0.0 else float !submit_ns /. float !submit_calls

let to_json () =
  let open Phoebe_util.Json in
  Obj
    [
      ( "spans",
        List
          (List.rev_map
             (fun s ->
               Obj
                 [
                   ("id", Int s.id); ("name", Str s.name); ("parent", Int s.parent); ("run", Int s.run);
                   ("start_ns", Int s.start_ns); ("end_ns", Int s.stop_ns); ("self_ns", Int (self_ns s));
                 ])
             !finished) );
      ("submit", Obj [ ("calls", Int !submit_calls); ("total_ns", Int !submit_ns) ]);
    ]
