(** Mutable binary min-heap, used for the device's channel schedule and
    the scheduler's deadline heap. The simulation engine keeps its event
    queue in its own allocation-free heap. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

val peek : 'a t -> 'a option

val clear : 'a t -> unit
