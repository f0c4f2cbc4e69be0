(** CRC-32 (IEEE 802.3 polynomial) checksums for page and WAL integrity,
    and the checksummed image frame of PAX pages and frozen blocks. *)

val bytes : Bytes.t -> pos:int -> len:int -> int
(** Checksum of a byte range; result fits in 32 bits. Folds eight bytes
    per step and allocates nothing.
    @raise Invalid_argument when the range is not inside [b]. *)

val string : string -> int
(** Checksum of a whole string. *)

val seal : Buffer.t -> Bytes.t
(** The on-disk image of a body: the body's checksum as an unsigned
    varint, then the body bytes. *)

val unseal : Bytes.t -> int
(** Verify a {!seal}ed image; returns the offset where the body starts.
    @raise Failure when the checksum does not match the body. *)
