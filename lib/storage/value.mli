(** Typed column values and relation schemas. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type col_type = T_int | T_float | T_str | T_bool

val compare : t -> t -> int
(** Total order with [Null] first; cross-type comparisons follow the
    constructor order (only meaningful inside one column in practice). *)

val equal : t -> t -> bool

val of_int : int -> t
(** [Int n]. For [0 <= n < 4096] it is one prebuilt cell shared by every
    caller, so decoding allocates nothing; outside that range it
    allocates as [Int n] does. Sharing is safe because a [t] is
    immutable: compare cells with {!equal} or {!compare}, never [==]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val size_bytes : t -> int
(** Storage footprint estimate used for page-budget accounting. *)

val encode : Buffer.t -> t -> unit
val decode : Bytes.t -> int -> t * int

val encode_key : Buffer.t -> t -> unit
(** Order-preserving (memcomparable) encoding: byte-wise comparison of two
    encoded keys matches {!compare} per component. Used for secondary
    index keys. Does not support [Float] NaN. *)

val key_at : string -> int -> t -> int
(** [key_at key off v] is the offset just past [v]'s {!encode_key} form
    when [key] holds exactly that form at [off], and [-1] otherwise. It
    compares in place: an int or float is one 8-byte load, a string is
    walked through its escapes, and nothing is encoded or allocated. *)

(** {1 Schemas} *)

module Schema : sig
  type value = t

  type column = { name : string; ctype : col_type }

  type t

  val make : (string * col_type) list -> t
  val columns : t -> column array
  val arity : t -> int

  val column_index : t -> string -> int
  (** @raise Not_found for an unknown column name. *)

  val column_type : t -> int -> col_type

  val check_row : t -> value array -> bool
  (** Arity matches and every non-null value matches its column type. *)

  val write : Buffer.t -> t -> unit
  (** The one on-disk schema format, shared by PAX pages, frozen blocks
      and checkpoint catalogs: the column count, then per column its
      length-prefixed name and a one-byte type tag ([i]nt, [f]loat,
      [s]tring, [b]ool). *)

  val read : Bytes.t -> int -> t * int
  (** Decode a {!write}n schema at an offset; returns the offset after it.
      @raise Failure on an unknown type tag. *)
end
