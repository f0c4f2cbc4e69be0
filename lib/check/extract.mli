(** Lowering of typed ASTs into the per-definition effect IR (see
    extract.ml for the modeling choices and known imprecision). *)

type loc = { file : string; line : int }

type act =
  | Acall of { cands : string list; loc : loc }
      (** resolution candidates, most-qualified first *)
  | Aacquire of { cls : string option; excl : bool; loc : loc }
  | Arelease of { cls : string option }
  | Awith of { cls : string option; excl : bool; body : act list; loc : loc }
  | Apark of { exempt : bool; loc : loc }
      (** [exempt]: [Trace.latch_exempt] of the park's [~phase] (device
          I/O, the one legal suspension under a latch) *)
  | Aalloc of { prim : string; loc : loc }
  | Araise of { prim : string; loc : loc }
  | Abranch of act list list  (** union over if/match arms *)

type def = {
  fqn : string;  (** e.g. "Bufmgr.latch", "Scheduler.Waitq.wait" *)
  unit_name : string;
  source : string;
  def_loc : loc;
  is_fun : bool;
  acts : act list;
  returns_field : string option;  (** latch class, for accessor functions *)
}

val defs_of_unit : lib_roots:string list -> Loader.unit_info -> def list
(** All toplevel (and nested-module) value definitions of a unit, in
    source order. *)
