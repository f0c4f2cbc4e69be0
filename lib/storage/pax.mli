(** PAX-format data pages (Ailamaki et al.; paper §5.2).

    A page stores up to [capacity] tuples column-major: each attribute
    occupies its own typed minipage (OCaml arrays here), with per-column
    null bitmaps and a sorted [row_id] vector. Hot and cold pages use
    this format and support in-place updates; historical versions live
    in the UNDO side (twin tables), never in the page.

    Row ids are assigned monotonically, so within a page the row_id
    vector is strictly increasing and lookup is a binary search.
    Deletion marks a slot; space is reclaimed on freeze or compaction. *)

type t

val create : Value.Schema.t -> capacity:int -> t

val copy : t -> t
(** Deep copy, GSN included: mutating the copy never touches the
    original. Used to build a sanitized image for write-back without
    disturbing the live page. *)

val schema : t -> Value.Schema.t
val capacity : t -> int
val count : t -> int
(** Number of occupied slots, including delete-marked ones. *)

val live_count : t -> int
val is_full : t -> bool
val is_empty : t -> bool

val gsn : t -> int
(** The page GSN: the GSN of the last logged write to the page, 0 for a
    page never logged. It is part of the page image ({!encode}), so it
    survives eviction and a restart. *)

val set_gsn : t -> int -> unit

val min_row_id : t -> int
(** @raise Invalid_argument on an empty page. *)

val max_row_id : t -> int

val append : t -> row_id:int -> Value.t array -> int
(** Add a tuple; returns its slot. Row ids must arrive in increasing
    order. @raise Invalid_argument if full, out of order, or the row
    does not match the schema. *)

val find : t -> row_id:int -> int
(** Slot of [row_id] (even if delete-marked); [-1] if absent. A point
    lookup runs it on every probe, so it returns a bare slot rather than
    an option. *)

val get : t -> slot:int -> Value.t array

val get_into : t -> slot:int -> Value.t array -> unit
(** [get_into t ~slot dst] decodes the tuple at [slot] into the first
    [arity] cells of the caller-owned [dst] — the allocation-free
    variant of {!get} for the execute hot path (typically a table's
    per-slot ring row). @raise Invalid_argument if [dst] is too small. *)

val get_cols_into : t -> slot:int -> int array -> Value.t array -> unit
(** [get_cols_into t ~slot cols dst] decodes only the listed columns of
    the tuple at [slot], each into its own cell of [dst]; other cells
    are left alone. A projected read touches just those minipages
    (§5.2). *)

val get_col : t -> slot:int -> col:int -> Value.t
val set_col : t -> slot:int -> col:int -> Value.t -> unit
val row_id_at : t -> slot:int -> int

val mark_deleted : t -> slot:int -> unit
val unmark_deleted : t -> slot:int -> unit
(** Rollback of an aborted delete. *)

val is_deleted : t -> slot:int -> bool

val iter_live : t -> (int -> Value.t array -> unit) -> unit
(** [iter_live t f] calls [f row_id tuple] for each non-deleted tuple in
    row_id order. *)

val size_bytes : t -> int
(** Current storage footprint estimate (for buffer budgets). *)

val encode : t -> Bytes.t
(** Serialise into a {!Phoebe_util.Crc32.seal}ed image; the schema goes
    through {!Value.Schema.write}. Each cell is written as
    {!Value.encode} would write it, straight from its column, so only
    the sealing allocates. *)

val decode : Bytes.t -> t
(** @raise Failure on checksum mismatch or malformed input.
    @raise Invalid_argument on a cell tagged with another column type. *)
