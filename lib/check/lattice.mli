(** Per-function effect summaries, the interprocedural fixpoint, and the
    held-state final pass (see lattice.ml for the lattice and its
    termination argument). *)

type loc = Extract.loc

type why = Wdirect of loc | Wvia of string * loc
(** why a function may park: a direct park site, or a call into a
    may-park callee *)

type summary = {
  mutable park : why option;
  mutable acq_excl : (string, unit) Hashtbl.t;  (** latch classes *)
  mutable holds : string option list;  (** classes (or unknown) held on exit *)
}

type graph = {
  defs : (string, Extract.def) Hashtbl.t;
  summaries : (string, summary) Hashtbl.t;
  order : (string * string, string) Hashtbl.t;  (** class edge -> witness *)
  mutable findings : Report.finding list;
}

val build : Extract.def list -> graph
val fixpoint : graph -> unit

val final_pass : graph -> unit
(** Emits park-while-latched findings into [findings] and fills the
    static acquisition-order graph [order]. Run after [fixpoint]. *)

val order_edges : graph -> (string * string * string) list
(** (src class, dst class, witness), sorted. *)

val direct_sites : Extract.def -> kind:[ `Alloc | `Raise ] -> (string * loc) list

val reachable_with_paths :
  ?cut:(loc -> bool) -> graph -> string -> (string, (string * loc) list) Hashtbl.t
(** Deterministic BFS from an entry fqn; each reached def maps to the
    call-site path from the entry (the entry itself to []). The BFS does
    not follow a call site for which [cut] holds. *)
