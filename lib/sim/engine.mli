(** Discrete-event simulation engine.

    Time is a [float] in seconds.  Events are closures; they may
    schedule further events.  The engine is single-threaded and
    deterministic: ties at the same instant fire in scheduling order,
    and all randomness comes from the engine's seeded {!Rng.t}.
    Pending events wait in one {!Heap} keyed by [(time, seq)]. *)

type t

type handle
(** Identifies a scheduled event so it can be cancelled.  Liveness is
    tracked per handle: a handle is live from {!schedule}/{!at} until
    it fires or is cancelled, and late cancels are exact no-ops.  A
    handle that is no longer live holds no reference to its closure. *)

val create : ?seed:int64 -> unit -> t
(** Default seed is 42. *)

val now : t -> float
(** Current simulated time in seconds. *)

val rng : t -> Rng.t
(** The engine's generator; components needing an independent stream
    should [Rng.split] it at setup time. *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** [schedule t ~delay f] runs [f] at [now t +. max 0 delay]. *)

val at : t -> time:float -> (unit -> unit) -> handle
(** [at t ~time f] runs [f] at absolute [time] (clamped to now). *)

val cancel : t -> handle -> unit
(** Cancelling an already-fired or cancelled event is a no-op. *)

val pending : t -> int
(** Number of live (not cancelled, not fired) events. *)

val step : t -> bool
(** Fires the next event; [false] when the queue is empty. *)

val run : ?until:float -> t -> unit
(** Runs until the queue drains or simulated time exceeds [until].
    Events scheduled beyond [until] remain pending. *)

val run_for : t -> float -> unit
(** [run_for t d] is [run ~until:(now t +. d) t], then advances the
    clock to exactly [now + d] even if the queue drained earlier. *)

val events_processed : t -> int
(** Total events fired since {!create} — the numerator of the
    fleet-bench events/sec headline. *)
