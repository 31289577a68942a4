(** Zeus: the forked-ZooKeeper config store and its three-level
    distribution tree (leader -> observer -> proxy), §3.4.

    Everything runs inside a {!Cm_sim.Engine} simulation:

    - An {b ensemble} of members (one leader, several followers)
      spread across regions runs a quorum commit log.  Writes are
      totally ordered by zxid.  The leader sends the n writes of one
      {!write_all} as one proposal per follower; a follower acks once,
      through the proposal's last zxid, and the leader commits each
      zxid in order once a majority, itself included, has acked through
      it.  So the writes of one call commit all or none.
    - Each cluster hosts {b observers}: full read-only replicas fed
      asynchronously by the leader.  An observer that detects a gap in
      zxids requests a catch-up, so delivery to observers is in-order
      despite network jitter.
    - Every production server runs a {b proxy} that connects to a
      random observer in its cluster, subscribes to the configs its
      applications need (watches), caches them on disk, and falls back
      to that on-disk cache when everything else is down — the
      paper's availability story.

    The distribution hot path is content-addressed and batched:

    - every write carries a {b content digest}; a rewrite of identical
      bytes fans out as a digest-only record and proxies holding
      matching bytes ack notifications without fetching;
    - the leader aggregates the commits of a small window into one
      {b batch} per destination, coalescing multiple writes to the
      same path to the latest, and observers bundle watch
      notifications into one message per proxy;
    - with {b relays} on, the leader sends each batch once per region
      to a relay observer which re-broadcasts locally, so leader
      egress scales with regions rather than observer count;
    - the leader maintains a {b latest-write-per-path index} over the
      committed log, so reads and snapshot catch-ups never scan or
      replay the log.

    Failure injection: leaders, observers and proxies can crash and
    restart; invariants (in-order delivery, no lost committed writes,
    cache availability) are exercised in the test suite.  A crash or
    restart from any source (this API, Monitor, a bare {!Cm_sim.Topology}
    call) triggers the reaction; 1 s after an observer's node goes down
    or comes back, every live proxy on a down observer reconnects. *)

type t

type params = {
  followers : int;           (** ensemble size is [followers + 1] *)
  observers_per_cluster : int;
  msg_overhead : int;        (** bytes of protocol framing per message *)
  fanout_stagger : float;
      (** extra delay between successive pushes of one fan-out stage,
          modeling the serialization of a very high fan-out at the
          sender (hundreds of observers in production).  Applies per
          region at the leader and per sibling at a relay when relays
          are on, per observer otherwise.  0 for small simulations;
          the Figure 14 experiment calibrates the paper's ~4.5s
          tree-propagation stage with it. *)
  snapshot_threshold : int;
      (** an observer whose zxid gap exceeds this catches up from a
          state snapshot (latest value per path, served from the
          commit-log index) instead of replaying the log suffix —
          ZooKeeper's snapshot mechanism *)
  dedup : bool;
      (** content-hash dedup on the wire: byte-identical rewrites fan
          out digest-only, and proxies whose cache matches a notified
          digest skip the fetch (and fire no callbacks) *)
  batching : bool;
      (** aggregate the commits of one [batch_window] into a single
          coalesced message per destination, and observer
          notifications into one message per proxy *)
  relay : bool;
      (** two-level fan-out: leader -> one relay observer per region
          -> sibling observers; falls back to direct sends when a
          relay dies mid-flight *)
  batch_window : float;      (** leader commit-aggregation window, seconds *)
  digest_bytes : int;        (** wire size of one content digest *)
  entry_overhead : int;      (** per-entry framing inside a batch *)
  delivery_log_cap : int;
      (** proxy delivery log keeps only this many recent entries *)
}

val default_params : params
(** Dedup, batching and relays on; 50ms batch window. *)

val legacy_params : params
(** {!default_params} with dedup, batching and relays off: every write
    is shipped full-value, one message per observer and per (path,
    watcher) — the pre-optimization protocol, kept as the ablation
    baseline. *)

val create : ?params:params -> Cm_sim.Net.t -> t

(** {1 Write path} *)

type write = {
  path : string;
  data : string;
  digest : string option;
      (** content hash of [data] (MD5 hex); [None] computes it here *)
  ctx : Cm_trace.Tracer.ctx;  (** {!Cm_trace.Tracer.none} when untraced *)
}

val write_all : t -> write list -> unit
(** Initiates the writes as one transaction, like ZooKeeper's [multi]:
    the leader appends them under consecutive zxids, in list order, and
    replicates them in one quorum round.  A proposal costs
    [msg_overhead + sum of |data| + (n - 1) * entry_overhead] bytes per
    follower and its ack [msg_overhead].  Each write still commits,
    fans out and is traced on its own, in zxid order.  While the leader
    is down the writes are buffered; the next leader proposes
    everything buffered as one transaction. *)

val write :
  ?digest:string -> ?ctx:Cm_trace.Tracer.ctx -> t -> path:string -> data:string -> unit
(** {!write_all} of one write.  Initiates a write at the current
    simulated time from the leader's node (the git tailer colocates
    with the ensemble).  Commit and fan-out happen asynchronously as
    the simulation runs.  [digest] is the content hash of [data] (MD5
    hex), computed here when absent.

    [ctx] (default untraced) is the trace context of the change this
    write carries.  When a tracer is attached to the underlying net
    ({!Cm_sim.Net.set_tracer}), the write records [zeus.commit],
    [zeus.batch_wait], [zeus.fanout]/[zeus.relay], [zeus.notify] and
    [zeus.fetch]/[zeus.cache_ack] spans as it propagates. *)

val last_committed_zxid : t -> int
val committed_value : t -> string -> string option
(** Latest committed data for a path — an index lookup, not a log
    scan. *)

(** {1 Proxies (per-server)} *)

type proxy

val proxy_on : ?weight:int -> t -> Cm_sim.Topology.node_id -> proxy
(** Creates (or returns the existing) proxy for a server node.

    [weight] (default 1) makes the proxy a {b cohort representative}:
    it stands for [weight] statistically identical servers (same
    cluster, same watch set).  Every message to or from it is
    accounted [weight] times on the wire ({!Cm_sim.Net.send}'s
    [copies]), the distribution-plane counters in {!stats} scale the
    same way, and {!deliveries_weighted} counts effective deliveries
    times the weight — while only one event stream runs.  Pair with
    {!Cm_sim.Cohort} and {!set_proxy_weight} to expand members
    lazily. *)

val subscribe : proxy -> path:string -> (zxid:int -> string -> unit) -> unit
(** Registers interest; the callback fires for every {e effective}
    update of the path, in zxid order, including the initial fetch if
    the config already exists.  With dedup on, a rewrite of identical
    bytes bumps the cached zxid without firing callbacks.  Multiple
    subscriptions per path are allowed. *)

val proxy_get : proxy -> string -> string option
(** Read through the proxy: in-memory cache first, then the on-disk
    cache.  Works even while the proxy process is crashed (the
    application reads the on-disk cache directly, §3.4). *)

val proxy_get_versioned : proxy -> string -> (int * string) option
(** [(zxid, data)] of the cached value — what the client library keys
    its parse-once memo on. *)

val proxy_cached_zxid : proxy -> string -> int option

(** {1 Failure injection} *)

val crash_leader : t -> unit
(** Crashes the current leader's node; 2 s later the live member with
    the longest log is elected. *)

val leader_node : t -> Cm_sim.Topology.node_id

val member_nodes : t -> Cm_sim.Topology.node_id array
(** The ensemble's nodes, the leader among them; crash and restart
    followers with {!Cm_sim.Topology.crash} and {!Cm_sim.Topology.restart}. *)

val crash_observer : t -> region:int -> cluster:int -> int -> unit
(** Crash the i-th observer of a cluster. *)

val restart_observer : t -> region:int -> cluster:int -> int -> unit
val crash_proxy : proxy -> unit
val restart_proxy : proxy -> unit

(** {1 Introspection for tests and benches} *)

val observer_last_zxid : t -> region:int -> cluster:int -> int -> int

val observer_data : t -> region:int -> cluster:int -> int -> (string * (int * string)) list
(** Sorted [(path, (zxid, data))] snapshot of an observer's replica —
    lets tests check that snapshot and replay catch-up converge to the
    same state. *)

val delivery_log : proxy -> (string * int) list
(** [(path, zxid)] of the most recent [delivery_log_cap] updates
    delivered to subscribers of this proxy, oldest first — used by the
    in-order-delivery property tests.  {!deliveries_total} counts all
    deliveries ever. *)

val deliveries_total : proxy -> int

val deliveries_weighted : proxy -> int
(** Effective deliveries summed with the proxy's cohort weight at
    delivery time; equals {!deliveries_total} for weight-1 proxies. *)

val proxy_weight : proxy -> int

val set_proxy_weight : proxy -> int -> unit
(** Adjusts the cohort weight — called from a {!Cm_sim.Cohort}
    [on_resize] hook when a member is expanded into an individual
    proxy. *)

type stats = {
  leader_batches : int;   (** batches flushed by the leader *)
  leader_msgs : int;      (** fan-out messages leaving the leader *)
  leader_bytes : int;     (** fan-out bytes leaving the leader (egress) *)
  relay_msgs : int;       (** relay -> sibling-observer forwards *)
  notify_msgs : int;      (** observer -> proxy notification messages *)
  notify_entries : int;   (** (path, zxid, digest) entries inside them *)
  fetches : int;          (** proxy -> observer fetch round trips *)
  fetches_skipped : int;  (** notifications acked from matching cached bytes *)
  payloads_deduped : int; (** writes fanned out digest-only *)
  writes_coalesced : int; (** writes superseded inside one batch window *)
  snapshots : int;        (** snapshot catch-ups served from the index *)
  replays : int;          (** log-suffix replay catch-ups *)
}

val stats : t -> stats
(** Cumulative distribution-plane counters — the evidence that the
    dedup/batch/relay paths actually fire. *)

(** {1 Propagation tracking} *)

val set_propagation : t -> Cm_trace.Propagation.t -> unit
(** Attach a propagation tracker: every proxy subscription registers a
    coverage target, every commit is noted, and every proxy-visible
    arrival (fetch delivery, deduped cache-ack, initial push) records
    a version arrival — powering [coverage]/[whereis] queries and the
    commit-to-client latency SLO.  Off by default. *)

val propagation : t -> Cm_trace.Propagation.t option

(** {1 Hooks for the pull-model ablation ({!Pull})} *)

val net_of : t -> Cm_sim.Net.t
val msg_overhead : t -> int

val nearest_observer_node : t -> Cm_sim.Topology.node_id -> Cm_sim.Topology.node_id
(** A live observer in the node's cluster (or any live observer). *)

val observer_value_at :
  t -> Cm_sim.Topology.node_id -> string -> (int * string) option
(** [(zxid, data)] the observer running on that node currently holds
    for a path. *)
