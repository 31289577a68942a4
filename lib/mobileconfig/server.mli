(** MobileConfig server side: translation servers answering device
    syncs and issuing emergency pushes (§5).

    Sync protocol: the client sends the hash of its config schema and
    the hash of its cached values; the server materializes the
    authoritative payload {e trimmed to the client's schema version}
    and replies "not modified" when the value hashes match — the
    paper's bandwidth-minimization scheme. *)

type response =
  | Not_modified
  | Payload of (string * Cm_json.Value.t) list
      (** full field set under the client's schema, defaults filled *)

type t

val create :
  ?stateful:bool ->
  Cm_sim.Engine.t ->
  translation:Translation.t ->
  resolver:Translation.resolver ->
  t
(** [stateful] (default false) enables the paper's footnote-2 future
    enhancement: the server remembers the hash of the last payload it
    sent to each client session, so sync requests no longer need to
    carry the hashes at all — smaller uplink messages on the mobile
    network. *)

val stateful : t -> bool

val new_session : t -> int
(** Registers a client session (stateful mode); the id is sent once at
    registration and identifies the client's cached state from then
    on. *)

val set_translation : t -> Translation.t -> unit
(** Live remapping (e.g. experiment -> constant migration). *)

val translation : t -> Translation.t

val sync :
  t ->
  session:int option ->
  user:Cm_gatekeeper.User.t ->
  cls:string ->
  client_schema:Cm_thrift.Schema.t ->
  values_hash:string option ->
  response
(** Fields unknown to the client's schema are dropped; fields the
    client's schema declares but no backend maps get the schema
    default.  The schema must contain a struct named [cls].
    In stateful mode with a [session], the server uses its remembered
    hash for that session instead of [values_hash] (which clients then
    omit from the wire). *)

val payload_hash : (string * Cm_json.Value.t) list -> string

(** {1 Emergency push} *)

val register_push : t -> (cls:string -> unit) -> int
(** Registers a device push-notification handler; returns its id. *)

val emergency_push :
  ?tracer:Cm_trace.Tracer.t ->
  ?ctx:Cm_trace.Tracer.ctx ->
  t ->
  cls:string ->
  loss_prob:float ->
  latency:(unit -> float) ->
  unit
(** Sends a push notification to every registered device; each is
    independently lost with [loss_prob] (push notification is
    unreliable — the reason pull remains the backbone).  With
    [tracer]/[ctx] set, each push records a [mobile.push] span
    (dropped ones are zero-length, tagged [dropped=true]). *)
