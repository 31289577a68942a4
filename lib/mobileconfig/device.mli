(** A mobile device running the MobileConfig client library (§5).

    The cross-platform client: a context class with typed getters, a
    flash cache that survives app restarts, an hourly-ish poll loop
    over an unreliable mobile network, and an emergency-push listener.
    Legacy app versions simply carry an older schema; the server trims
    its reply accordingly. *)

type network = {
  latency_mean : float;  (** one-way seconds, e.g. 0.15 *)
  latency_jitter : float;
  loss_prob : float;     (** per round trip *)
  request_bytes : int;   (** sync request incl. both hashes *)
  overhead_bytes : int;  (** response framing / not-modified reply *)
}

val default_network : network

type t

val create :
  ?network:network ->
  ?weight:int ->
  Cm_sim.Engine.t ->
  Server.t ->
  user:Cm_gatekeeper.User.t ->
  cls:string ->
  schema:Cm_thrift.Schema.t ->
  poll_interval:float ->
  t
(** The device registers for emergency pushes automatically.

    [weight] (default 1) makes this client a cohort representative
    for that many statistically identical devices: sync attempts,
    completions and byte counters scale by the weight, per-device
    round-trip loss is drawn binomially, and one materialized server
    response answers every represented device — the aggregation that
    lets a million-device day run as a thousand event streams. *)

val start : t -> unit
(** First sync immediately, then the poll loop. *)

val stop : t -> unit

(** {1 Typed getters (the generated context class)} *)

val get_bool : t -> string -> bool
val get_int : t -> string -> int
val get_float : t -> string -> float
val get_string : t -> string -> string
(** Missing/mistyped fields return zero values — mobile code must
    never crash on config absence. *)

val has_value : t -> string -> bool

(** {1 Introspection} *)

val user : t -> Cm_gatekeeper.User.t
val weight : t -> int
val syncs_completed : t -> int
val not_modified : t -> int
val bytes_down : t -> int
val bytes_up : t -> int
