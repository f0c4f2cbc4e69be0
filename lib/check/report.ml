(* Findings with stable rule names, deterministic ordering and
   rendering. Rule names:
     park-while-latched   non-I/O suspension reachable under a latch
     latch-order-cycle    cycle in the static acquisition-order graph
     hot-path-alloc       allocation reachable from a hot entry point
     recovery-raise       raising stdlib partial reachable from recovery
     random               Stdlib.Random in kernel code
     wall-clock           a host-clock read
     poly-compare         polymorphic comparison at a type variable or a
                          function type
     hashtbl-iter-mutate  mutating a table inside its own Hashtbl.iter
     missing-mli          implementation without an interface
     unknown-pragma       allow pragma naming none of the above *)

let rules =
  [
    "park-while-latched"; "latch-order-cycle"; "hot-path-alloc"; "recovery-raise"; "random";
    "wall-clock"; "poly-compare"; "hashtbl-iter-mutate"; "missing-mli"; "unknown-pragma";
  ]

type finding = {
  rule : string;
  file : string;
  line : int;
  extra : (string * int) list;
      (** additional locations a pragma may be attached to (e.g. the
          entry point of a reachability chain) *)
  msg : string;
}

let compare_findings a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> ( match String.compare a.rule b.rule with 0 -> String.compare a.msg b.msg | n -> n)
    | n -> n)
  | n -> n

let sort fs = List.sort_uniq compare_findings fs

let render_finding f = Printf.sprintf "%s:%d: [%s] %s" f.file f.line f.rule f.msg

let render ~units ~defs findings =
  let b = Buffer.create 1024 in
  List.iter (fun f -> Buffer.add_string b (render_finding f ^ "\n")) findings;
  if findings = [] then
    Buffer.add_string b
      (Printf.sprintf "phoebe_check: clean (%d units, %d functions analyzed)\n" units defs)
  else
    Buffer.add_string b
      (Printf.sprintf "phoebe_check: %d finding(s) across %d units\n" (List.length findings) units);
  Buffer.contents b
