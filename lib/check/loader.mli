(** Loading of the dune build's .cmt typed-AST files (see loader.ml for
    the layout assumptions). *)

type unit_info = {
  unit_name : string;  (** short module name, e.g. "Latch" *)
  source : string;  (** source path as recorded by the compiler *)
  has_intf : bool;  (** a sibling .cmti exists: the unit has an .mli *)
  str : Typedtree.structure;
}

type t = {
  units : unit_info list;  (** sorted by [unit_name] *)
  lib_roots : string list;  (** alias-unit module names, e.g. "Phoebe_storage" *)
}

val load_dirs : string list -> t
(** Recursively collect and read every .cmt under the given directories.
    Unreadable or interface-only cmts are skipped. *)
