(** Frozen data blocks (paper §5.2): several consecutive leaf pages
    compressed into one read-only block in the Data Block File.

    Freezing preserves row_id order; updates and deletes against frozen
    rows are out-of-place (delete-mark in the block directory plus a
    re-insert into hot storage), so blocks are never rewritten except to
    record deletions. Compression is per-column: delta+varint for ints,
    dictionary for low-cardinality strings, bitmaps for bools. *)

type t

val freeze : Pax.t list -> t
(** Compress the live tuples of consecutive pages (increasing row_id
    order required across the list). *)

val first_row_id : t -> int
val last_row_id : t -> int
val count : t -> int
val schema : t -> Value.Schema.t

val mark_deleted : t -> row_id:int -> bool
(** Out-of-place delete; returns false if absent or already deleted. *)

val unmark_deleted : t -> row_id:int -> bool
(** Rollback of an aborted out-of-place delete. *)

val is_deleted : t -> row_id:int -> bool

val get_raw_into : t -> row_id:int -> Value.t array -> bool
(** Decompress one tuple into the prefix of a caller-owned buffer,
    regardless of its delete mark (MVCC version reconstruction needs the
    content under the mark; check {!is_deleted} for the live row set);
    [false] if the row id is not in this block. Allocates no row. *)

val iter_live : t -> (int -> Value.t array -> unit) -> unit

val iter_all : t -> (int -> deleted:bool -> Value.t array -> unit) -> unit

val fold_col : t -> col:int -> init:'a -> f:('a -> rid:int -> deleted:bool -> Value.t -> 'a) -> 'a
(** Columnar fold: materialises only the requested column (one
    decompression per block) — the HTAP fast path over frozen data. *)

val live_count : t -> int

val compressed_bytes : t -> int
val uncompressed_bytes : t -> int

val encode : t -> Bytes.t
(** Serialise into a {!Phoebe_util.Crc32.seal}ed image; the schema goes
    through {!Value.Schema.write}. *)

val decode : Bytes.t -> t
(** @raise Failure on checksum mismatch or malformed input. *)
