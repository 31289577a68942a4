(** "Where is my config": propagation coverage tracking.

    The tracker watches the distribution plane from the outside: Zeus
    reports every commit ([note_commit]) and every
    subscriber-visible delivery ([record_arrival]); subscribers (proxy
    watches, client [want]s) register as coverage {e targets}.  It can
    then answer the operator questions from §6.2 and the MobileConfig
    rollout gates: what fraction of subscribed proxies/clients hold at
    least version [zxid] (or exactly content [digest]) of a path, and
    what is the commit-to-subscriber latency distribution.

    Fed to [Monitor] via [Cm_monitor.Service.propagation_source] and to
    the CLI via [configerator whereis]. *)

type t

val create : now:(unit -> float) -> unit -> t

val register_target : t -> ?kind:string -> path:string -> node:int -> unit -> unit
(** Declare that [node] subscribes to [path].  [kind] defaults to
    ["proxy"]; clients register as ["client"].  Idempotent. *)

val note_commit : t -> path:string -> zxid:int -> digest:string -> unit
(** A write to [path] committed at the Zeus leader (time = [now ()]).
    Starts the commit-to-subscriber latency clock for that zxid. *)

val record_arrival :
  t -> ?kind:string -> ?digest:string -> path:string -> node:int -> zxid:int -> unit -> unit
(** [node] now holds [path] at version [zxid].  Ignored if the node
    already holds a newer version; records a latency sample when the
    commit time of [zxid] is known. *)

(** {1 Queries} *)

val coverage : t -> ?kind:string -> path:string -> zxid:int -> unit -> float
(** Fraction of registered targets (optionally of one kind) holding
    version [>= zxid].  [1.0] when there are no targets (vacuous). *)

val coverage_digest : t -> ?kind:string -> path:string -> digest:string -> unit -> float
(** Fraction of targets whose held content digest equals [digest]. *)

val min_coverage_latest : t -> ?kind:string -> unit -> float
(** Worst coverage across all committed paths, each measured at its
    latest committed zxid — the fleet-wide "is everything converged"
    gauge.  [1.0] when nothing has committed. *)

val latest_zxid : t -> path:string -> int option
val target_count : t -> ?kind:string -> path:string -> unit -> int
val holders : t -> ?kind:string -> path:string -> unit -> (int * int) list
(** [(node, held zxid)] per target, sorted by node; targets that have
    received nothing yet report zxid 0. *)

val paths : t -> string list
(** All paths with at least one commit or target, sorted. *)

val latency_count : t -> int
val latency_percentile : t -> float -> float
(** Percentile (in [0,1]) of commit-to-subscriber latency samples, in
    simulated seconds; [nan] when no samples. *)
