(** Discrete-event simulation engine.

    All virtual time is in integer nanoseconds. Events scheduled for the
    same instant fire in FIFO order of scheduling, which makes whole-system
    runs deterministic. *)

type t

val create : unit -> t

val now : t -> int
(** Current virtual time in nanoseconds. *)

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** [schedule t ~delay f] fires [f] at [now t + max 0 delay]. *)

val schedule_at : t -> time:int -> (unit -> unit) -> unit

val run : t -> unit
(** Process events until the queue drains. *)

val run_until : t -> time:int -> unit
(** Process events with timestamp [<= time]; afterwards [now t = time]
    if the queue outlived the horizon. *)

val clear : t -> unit
(** Drop every pending event without running it; [now] is unchanged.
    This is power loss: in-flight device completions, background fibers
    and timer ticks of the dead instance simply never fire. Only crash
    simulation ({!Phoebe_core.Db.crash}) should use it. *)

val pending : t -> int
(** Number of queued events (for tests and liveness checks). *)

val processed : t -> int
(** Total events executed since creation, by {!run} and {!run_until}
    alike (performance introspection). *)
