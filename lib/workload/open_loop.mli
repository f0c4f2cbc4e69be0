(** Open-loop ("millions of users") load generation.

    The closed-loop harnesses elsewhere in the repo keep a fixed number
    of transactions outstanding — completions gate arrivals, so an
    overloaded system is automatically throttled by its own slowness.
    Real user populations are not so polite: arrivals follow wall
    clocks, not completions. This generator schedules arrivals on the
    simulation engine at a configured rate regardless of how the system
    is doing, which is what makes admission control (shedding) visible
    as a real back-pressure valve instead of a no-op.

    Arrivals are a thinned Poisson process (Lewis–Shedler): exponential
    inter-arrival gaps at the shape's peak rate, each candidate kept
    with probability [rate(t)/peak]. Fully deterministic for a fixed
    seed. *)

type shape =
  | Steady of float  (** constant arrivals/second *)
  | Flash of { base : float; peak : float; start_s : float; duration_s : float }
      (** flash crowd: [base] tps, stepping to [peak] during the window *)
  | Diurnal of { base : float; peak : float; period_s : float }
      (** raised-cosine day curve between [base] (trough) and [peak] *)

type t

val start :
  Phoebe_sim.Engine.t ->
  shape:shape ->
  duration_ns:int ->
  seed:int ->
  submit:(rng:Phoebe_util.Prng.t -> on_done:(unit -> unit) -> unit) ->
  t
(** Begin scheduling arrivals at the engine's current virtual time.
    Each arrival calls [submit] once with its own PRNG split and a
    completion callback; [submit] raising {!Phoebe_core.Db.Overloaded}
    counts the arrival as shed (no retry — open-loop drops). Returns
    immediately; drive the engine to actually run. *)

val offered : t -> int
(** Arrivals handed to [submit] (admitted + shed). *)

val admitted : t -> int
val shed : t -> int
val completed : t -> int
(** Completion callbacks fired so far (admitted transactions whose
    commit or final abort finished). *)
