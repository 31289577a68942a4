(** Network model: latency + bandwidth between fleet nodes.

    Transfer time for a message of [bytes] between two nodes is
    [latency(src, dst) + bytes / bandwidth(src, dst)], with
    multiplicative jitter.  Latencies are classed by locality
    (same cluster / same region / cross region), matching the
    high-bandwidth data-center network the paper assumes for the Zeus
    distribution tree, and the scarcer cross-region links that motivate
    PackageVessel's locality-aware peer selection. *)

type params = {
  same_cluster_lat : float;  (** seconds, e.g. 0.0005 *)
  same_region_lat : float;   (** seconds, e.g. 0.002 *)
  cross_region_lat : float;  (** seconds, e.g. 0.075 *)
  same_cluster_bw : float;   (** bytes/second *)
  same_region_bw : float;
  cross_region_bw : float;
  jitter : float;            (** relative, e.g. 0.1 for +-10% *)
  drop_prob : float;         (** probability a message is lost *)
}

val default_params : params
(** Data-center defaults: 0.5ms / 2ms / 75ms latency, 1 GB/s in
    cluster, 400 MB/s in region, 50 MB/s cross region, 10% jitter,
    no loss. *)

val lossy : params -> drop_prob:float -> params

type t

val create : ?params:params -> Engine.t -> Topology.t -> t

val engine : t -> Engine.t
val topology : t -> Topology.t

val set_tracer : t -> Cm_trace.Tracer.t -> unit
(** Attach a span tracer.  Every protocol built on this net (Zeus,
    PackageVessel, the pipeline) discovers the tracer here, so one
    attachment traces the whole system.  Off by default. *)

val tracer : t -> Cm_trace.Tracer.t option

val transfer_time : t -> src:Topology.node_id -> dst:Topology.node_id -> bytes:int -> float
(** Sampled duration for one message; includes jitter. *)

val send :
  ?hop:string ->
  ?ctx:Cm_trace.Tracer.ctx ->
  ?ctxs:Cm_trace.Tracer.ctx list ->
  ?copies:int ->
  t ->
  src:Topology.node_id ->
  dst:Topology.node_id ->
  bytes:int ->
  (unit -> unit) ->
  unit
(** Delivers the callback after the sampled transfer time, unless the
    message is dropped or [dst] is down at delivery time.  The
    callback runs in the destination's context.

    [copies] (default 1) models a cohort of statistically identical
    receivers: byte, message and egress accounting scale by [copies]
    while drop and jitter are drawn once and a single delivery event
    fires — the aggregation that makes 100k-server runs tractable.

    When a tracer is attached, a span named [hop] is recorded for
    [ctx] and for each context in [ctxs] (a batched message carries
    the contexts of every traced change it coalesces); dropped
    messages record a zero-length span tagged [dropped=true].
    Tracing never changes timing, RNG draws or byte accounting. *)

val send_reliable :
  ?hop:string ->
  ?ctx:Cm_trace.Tracer.ctx ->
  ?ctxs:Cm_trace.Tracer.ctx list ->
  ?copies:int ->
  t ->
  src:Topology.node_id ->
  dst:Topology.node_id ->
  bytes:int ->
  (unit -> unit) ->
  unit
(** Like {!send} but never dropped by the loss model (still skipped if
    the destination is down: crashed nodes receive nothing). *)

val bytes_sent : t -> int
(** Total bytes handed to the network so far. *)

val messages_sent : t -> int

val cross_region_bytes : t -> int
(** Bytes that crossed a region boundary; the metric the P2P locality
    ablation reports. *)

val egress_bytes : t -> Topology.node_id -> int
(** Bytes sent with the given node as source — e.g. the Zeus leader's
    fan-out egress, which the two-level relay tree is meant to bound. *)

val reset_counters : t -> unit
