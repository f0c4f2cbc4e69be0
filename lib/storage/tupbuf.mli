(** Reusable flat tuple scratch for the zero-allocation execute path
    (DESIGN.md §4h).

    A pool hands out pre-sized [Value.t array] row buffers keyed by
    scheduler slot so point reads and updates decode tuples into
    caller-owned storage instead of allocating per read.

    Ownership rule: a row obtained from {!take} is valid until the same
    slot takes {!ring} more rows from the same pool. One fiber occupies
    a slot at a time, so a row survives its taker's suspensions, but it
    must not be retained across statements — paths that keep tuple data
    (undo before-images, index keys, user-visible scan results) copy. *)

type t

val ring : int
(** Rows handed out per slot before the oldest is reused. *)

val create : arity:int -> t
(** An empty pool; per-slot rings are grown lazily on first {!take}. *)

val take : t -> slot:int -> Value.t array
(** The next ring buffer for [slot], length ≥ [arity]. Contents are
    whatever the previous use left — callers overwrite every cell. *)

val result : t -> slot:int -> Value.t array
(** A dedicated per-slot row outside the ring: stable across any number
    of {!take}s, overwritten only by the next caller that blits into
    [result] for the same slot. Used for point-lookup results that must
    survive the probing of later index candidates. *)

val rids : t -> slot:int -> int array
(** A per-slot row-id scratch, outside the ring: a point lookup writes
    its candidate row ids here in one charge-free index walk, then
    probes them. Valid until the slot's next lookup on this table. *)

val grow_rids : t -> slot:int -> int -> unit
(** Make the slot's {!rids} hold at least [n] row ids (the old contents
    are dropped). *)

val arity : t -> int
