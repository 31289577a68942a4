(** A crashable simulated process: an owner for scheduled events.

    A model of a daemon can own its events through a [Proc.t]; today
    only [exp_store]'s simulated committer does.  {!kill} models
    [kill -9]: every pending owned event is cancelled and any event
    already in flight from an older incarnation fires as a no-op — the
    process does no further work and runs no cleanup, exactly like a
    real SIGKILL mid-commit.  {!restart} begins a new incarnation and
    runs the registered restart hooks (where recovery code — e.g.
    reopening a pack directory — belongs). *)

type t

val spawn : Engine.t -> name:string -> t
(** A new process, initially up (incarnation 1). *)

val name : t -> string
val alive : t -> bool

val incarnation : t -> int
(** Bumped by every {!restart}; 1 initially. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Like {!Engine.schedule}, but owned: the event is dropped if the
    process was killed, or killed-and-restarted, before it fires
    (incarnation guard).  No-op when the process is down. *)

val every : t -> period:float -> (unit -> unit) -> unit
(** Periodic loop under the same ownership: stops on {!kill}, does
    {e not} auto-resume on {!restart} (restart hooks decide what the
    new incarnation runs). *)

val kill : t -> unit
(** [kill -9]: cancels all pending owned events, runs no cleanup.
    No-op if already down. *)

val on_restart : t -> (unit -> unit) -> unit
(** Registers a recovery hook; hooks run on every {!restart} in
    registration order. *)

val restart : t -> unit
(** New incarnation: marks the process up and runs the restart hooks.
    @raise Invalid_argument if the process is still up. *)

val kills : t -> int
val restarts : t -> int
