(** An encoded index key: memcomparable bytes (DESIGN.md §4h) in a
    buffer that grows in place.

    It is the one key representation above the index tree's node
    layout: a statement's probe, an index entry's key and the key a
    prefix walk rebuilds are all of this type. Its length only grows
    through the functions below, each of which grows the bytes first,
    so the first {!length} bytes of {!bytes} always exist and a reader
    may load them unchecked. Growth at least doubles the bytes, so a
    buffer that is reused reaches its steady size and then allocates
    nothing. *)

type t

val create : unit -> t
(** An empty key, with room for 64 bytes. *)

val clear : t -> unit
(** Empty the key; the bytes are kept. *)

val length : t -> int

val bytes : t -> Bytes.t
(** The key's bytes: the first {!length} of them hold it. Read-only, and
    valid until the key next grows. *)

val add : t -> Value.t -> unit
(** Append the value's order-preserving (memcomparable) encoding: a
    byte-wise comparison of two encoded keys matches {!Value.compare}
    per component. An int or float is one 8-byte store and a string is
    escaped in a loop, so nothing is allocated once the bytes fit. Does
    not support [Float] NaN. *)

val add_string : t -> string -> unit
(** Append raw bytes: a key or key part already encoded. *)

val set_concat : t -> string -> Bytes.t -> int -> int -> unit
(** [set_concat k s b off len] makes the key the raw bytes of [s]
    followed by [len] bytes of [b] from [off]: a key rebuilt from a
    node's prefix and one of its suffixes. *)

val value_at : t -> int -> Value.t -> int
(** [value_at k off v] is the offset just past [v]'s {!add} form when the
    key holds exactly that form at [off], and [-1] otherwise. It matches
    in place: an int or float is one 8-byte load, a string is walked
    through its escapes, and nothing is encoded or allocated. *)

val equal : t -> t -> bool
(** Same length and same bytes. *)

val to_string : t -> string
(** A copy of the key's bytes. *)
