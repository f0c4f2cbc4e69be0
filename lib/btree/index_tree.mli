(** The index B-tree (paper §5.1): user-defined secondary indexes mapping
    memcomparable key bytes to row ids in the table B-tree.

    Entries are (key, row_id) pairs ordered lexicographically by key and
    then row id, which makes non-unique indexes a range of adjacent
    entries. Traversal uses optimistic lock coupling; leaf modifications
    take the leaf latch exclusively. Splits are performed preemptively on
    the way down so at most one (parent, child) latch pair is held.

    A node stores one prefix that all its keys share and the rest of each
    key packed into one byte string behind 16-bit offsets, in arrays
    sized to its keys (DESIGN.md, "Index nodes"). *)

type t

val create : name:string -> ?fanout:int -> unique:bool -> unit -> t

val name : t -> string

exception Duplicate_key of string
(** Raised by {!insert} on a unique index when the key is present. *)

val insert : t -> key:string -> rid:int -> unit
(** {!insert_key} over a whole string. *)

val insert_key : t -> Phoebe_storage.Keybuf.t -> rid:int -> unit
(** Add the entry of the key. The node copies the key's bytes, so the
    caller may reuse the key once the call returns (not before: the
    descent charges, and so can suspend).
    @raise Invalid_argument when the key is longer than the tree's limit
    (65,535 bytes divided by the fanout: 1,023 at the default fanout of
    64). *)

val delete : t -> key:string -> rid:int -> bool
(** {!delete_key} over a whole string. *)

val delete_key : t -> Phoebe_storage.Keybuf.t -> rid:int -> bool
(** Remove one (key, rid) entry; false if absent. *)

val lookup_first : t -> key:string -> int option
(** The lowest row id for [key], through the walk of {!collect_key}. *)

val collect_key : t -> key:Phoebe_storage.Keybuf.t -> int array -> int
(** [collect_key t ~key dst] writes the row ids of the entries whose key
    is [key] into [dst] in ascending order and returns how many there
    are. When that count exceeds [Array.length dst], only the first
    [Array.length dst] are written: grow [dst] and walk again. Makes no
    charge and allocates nothing, so a caller can take every candidate
    first and probe them afterwards. *)

val prefix :
  t -> prefix:Phoebe_storage.Keybuf.t -> Phoebe_storage.Keybuf.t -> (Phoebe_storage.Keybuf.t -> int -> bool) -> unit
(** [prefix t ~prefix kb f] visits, in order, the entries whose key
    starts with [prefix]: each entry's key is rebuilt into [kb] and [f]
    gets [kb] and the entry's rid, and returns [false] to stop early.
    The key in [kb] is valid until [f] returns, since the walk rebuilds
    the next entry's key there only then: a walk that [f] starts, or
    another fiber's walk, needs a buffer of its own. The walk makes no
    charge and, apart from what [f] does and [kb] grown for a key longer
    than any before, allocates nothing. *)

val compare_key : string -> Phoebe_storage.Keybuf.t -> int
(** [compare_key k p] orders the stored key [k] against the probe [p]
    exactly as [String.compare] orders [k] and [p]'s bytes as a string.
    Every search above makes the same comparison, of a node's prefix and
    then of its suffixes read in place; it allocates nothing. *)

val count : t -> int
val depth : t -> int

(** {1 Structural check} *)

type rule =
  | Key_order  (** each node's entries strictly ascend by (key, rid) *)
  | Child_range
      (** every entry of child [i] is at or above separator [i - 1] and
          below separator [i] of its parent (and so of every ancestor) *)
  | Prefix
      (** a node's packed layout decodes: its offsets start at 0, never
          decrease and end inside its suffix bytes, so each key is the
          node's prefix followed by a suffix of its own *)
  | Count  (** {!count} equals the number of leaf entries *)
  | Depth  (** every leaf sits at {!depth} *)

type finding = { rule : rule; detail : string }

val rule_name : rule -> string

val verify : t -> finding list
(** Every broken rule, with the index, the node's path from the root
    and the keys involved; [[]] on a sound tree. Walks the whole tree
    and allocates freely: a check for tests and sanitized runs, not for
    the execute path. *)

(** {1 Key encoding helpers} *)

val encode_key : Phoebe_storage.Value.t list -> string
(** Memcomparable composite key from column values, through
    {!Phoebe_storage.Keybuf.add}. Encodes through one module-level key
    buffer; only the returned string is allocated. *)

