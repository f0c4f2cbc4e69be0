(** The index B-tree (paper §5.1): user-defined secondary indexes mapping
    memcomparable key bytes to row ids in the table B-tree.

    Entries are (key, row_id) pairs ordered lexicographically by key and
    then row id, which makes non-unique indexes a range of adjacent
    entries. Traversal uses optimistic lock coupling; leaf modifications
    take the leaf latch exclusively. Splits are performed preemptively on
    the way down so at most one (parent, child) latch pair is held. *)

type t

val create : name:string -> ?fanout:int -> unique:bool -> unit -> t

val name : t -> string

exception Duplicate_key of string
(** Raised by {!insert} on a unique index when the key is present. *)

val insert : t -> key:string -> rid:int -> unit

val delete : t -> key:string -> rid:int -> bool
(** Remove one (key, rid) entry; false if absent. *)

val lookup_first : t -> key:string -> int option
(** The lowest row id for [key], through {!collect_key}. *)

val collect_key : t -> key:string -> int array -> int
(** [collect_key t ~key dst] writes the row ids of [key]'s entries into
    [dst] in ascending order and returns how many there are. When that
    count exceeds [Array.length dst], only the first [Array.length dst]
    are written: grow [dst] and walk again. Makes no charge and allocates
    nothing, so a caller can take every candidate first and probe them
    afterwards. *)

val prefix : t -> prefix:string -> (string -> int -> bool) -> unit
(** In-order visit of the entries whose key starts with [prefix]; the
    callback gets each entry's key and rid and returns [false] to stop
    early. *)

val count : t -> int
val depth : t -> int

(** {1 Key encoding helpers} *)

val encode_key : Phoebe_storage.Value.t list -> string
(** Memcomparable composite key from column values. Encodes through one
    module-level buffer; only the returned string is allocated. *)

