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

val collect_key : t -> key:Bytes.t -> len:int -> int array -> int
(** [collect_key t ~key ~len dst] writes the row ids of the entries whose
    key is the first [len] bytes of [key] into [dst] in ascending order
    and returns how many there are. When that count exceeds
    [Array.length dst], only the first [Array.length dst] are written:
    grow [dst] and walk again. Makes no charge and allocates nothing, so
    a caller can take every candidate first and probe them afterwards.
    @raise Invalid_argument when [len] is past [key]'s bytes. *)

val prefix : t -> prefix:Bytes.t -> len:int -> (string -> int -> bool) -> unit
(** In-order visit of the entries whose key starts with the first [len]
    bytes of [prefix]; the visitor gets each entry's key and rid and
    returns [false] to stop early. The walk makes no charge and, apart
    from what the visitor does, allocates nothing.
    @raise Invalid_argument when [len] is past [prefix]'s bytes. *)

val compare_key : string -> Bytes.t -> int -> int
(** [compare_key k p len] orders the stored key [k] against the probe
    made of the first [len] bytes of [p] exactly as [String.compare]
    orders [k] and [Bytes.sub_string p 0 len]. It is the one key
    comparison of every search above; it allocates nothing.
    @raise Invalid_argument when [len] is past [p]'s bytes. *)

val count : t -> int
val depth : t -> int

(** {1 Key encoding helpers} *)

val encode_key : Phoebe_storage.Value.t list -> string
(** Memcomparable composite key from column values, through
    {!Phoebe_storage.Value.encode_key}. Encodes through one module-level
    buffer; only the returned string is allocated. *)

