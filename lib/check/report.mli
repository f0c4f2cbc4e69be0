(** Findings with stable rule names and deterministic ordering. *)

val rules : string list
(** Every rule name a finding can carry. *)

type finding = {
  rule : string;
  file : string;
  line : int;
  extra : (string * int) list;
      (** additional locations a pragma may be attached to (the entry
          point of a reachability chain) *)
  msg : string;
}

val sort : finding list -> finding list
(** Sort by (file, line, rule, message) and drop duplicates. *)

val render_finding : finding -> string

val render : units:int -> defs:int -> finding list -> string
(** The full report text, ending in a one-line summary. *)
