(** Comment-only pragma extraction, the analyzer's one pragma parser (see
    pragma.ml for the syntax). Pragma-shaped text inside string literals
    — plain or quoted, inside or outside comments — is never honored. *)

type t

val empty : t
val of_source : string -> t
val of_file : string -> t

val allowed : t -> rule:string -> line:int -> bool
(** Is a finding of [rule] at [line] suppressed by an allow pragma on
    the same line, the line above, or a file-scoped allow? *)

val allows : t -> (string * int) list
(** Every allow pragma as (rule, line), in source order. *)

val is_hot_entry : t -> def_line:int -> bool
(** Does a hot-path tag sit within two lines above [def_line]? *)
