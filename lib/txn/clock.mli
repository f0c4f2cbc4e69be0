(** The global logical clock and XID encoding (paper §6.1).

    A single monotonically increasing counter issues both snapshot
    timestamps and commit timestamps, making snapshot acquisition O(1) —
    the paper's replacement for PostgreSQL's active-transaction scan.

    XIDs embed the transaction's start timestamp with a high marker bit,
    so an uncommitted [ets] field (holding an XID) compares greater than
    every committed timestamp — Algorithm 1's comparisons need no case
    split. The paper uses bit 63 of a 64-bit word with 62 timestamp bits;
    OCaml's native 63-bit integers shift that scheme down one bit (marker
    at bit 61, 61 timestamp bits), which changes no behaviour. *)

type t

val create : unit -> t

val next : t -> int
(** Allocate the next timestamp (used for commit timestamps). *)

val current : t -> int
(** Read the latest issued timestamp — an O(1) snapshot. *)

val advance_to : t -> int -> unit
(** Move the clock forward to at least [ts] (checkpoint restore). *)

(** {1 XIDs} *)

val xid_of_start_ts : int -> int
val is_xid : int -> bool
val start_ts_of_xid : int -> int
