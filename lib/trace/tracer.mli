(** Dapper-style span tracing for the config-management pipeline.

    One {e trace} follows one proposed config change end to end:
    author submit → compile → CI → review → canary → landing-strip
    commit → git tailer → Zeus fan-out → proxy → client.  Each hop
    records a {e span} — a named interval of simulated time with the
    nodes and byte counts involved — and the collector assembles spans
    into per-hop latency statistics, per-change critical paths, and a
    text waterfall report (the §6.2 / Figure 14 commit-to-fleet
    breakdown, measured instead of eyeballed).

    The tracer is clock-agnostic: it is created with a [now] function
    (normally [fun () -> Engine.now engine]) so the library depends on
    nothing and can be threaded through [Cm_sim.Net] without a
    dependency cycle.

    Tracing is designed to be {b observationally free}: a context is a
    pair of ints carried alongside protocol messages, spans are
    recorded out of band (no extra simulated messages, bytes, RNG
    draws or scheduled events), and every operation on an untraced
    context ({!none}) or a disabled tracer is a no-op.  The property
    test in [test_trace.ml] checks a traced and an untraced Zeus run
    are byte-for-byte equivalent on the wire. *)

type ctx
(** A trace context: (trace id, parent span id).  Carried by writes,
    batches and notifications as they flow through the system. *)

val none : ctx
(** The untraced context; every recording operation on it is a no-op. *)

val is_traced : ctx -> bool
val trace_id : ctx -> int
(** [0] for {!none}. *)

type span = {
  strace : int;                   (** trace id *)
  sid : int;                      (** unique span id *)
  sparent : int;                  (** parent span id, 0 for roots *)
  sname : string;                 (** hop name, e.g. "zeus.fanout" *)
  ssrc : int;                     (** source node id, -1 when n/a *)
  sdst : int;                     (** destination node id, -1 when n/a *)
  sbytes : int;                   (** wire bytes, 0 when n/a *)
  st0 : float;                    (** start, simulated seconds *)
  st1 : float;                    (** end, simulated seconds *)
  stags : (string * string) list;
}

type t

val create : ?enabled:bool -> now:(unit -> float) -> unit -> t
(** [enabled] defaults to [true]; a disabled tracer hands out {!none}
    contexts and records nothing. *)

val enabled : t -> bool

val new_trace : t -> name:string -> ctx
(** Starts a new trace (one per proposed change / traced write) and
    returns its root context.  Returns {!none} when disabled. *)

val span :
  t ->
  ctx ->
  name:string ->
  ?src:int ->
  ?dst:int ->
  ?bytes:int ->
  ?tags:(string * string) list ->
  t0:float ->
  t1:float ->
  unit ->
  ctx
(** Records a completed span under [ctx] and returns the child context
    (so the next hop nests beneath this one).  No-op returning {!none}
    when [ctx] is untraced or the tracer is disabled. *)

val event :
  t ->
  ctx ->
  name:string ->
  ?src:int ->
  ?dst:int ->
  ?tags:(string * string) list ->
  unit ->
  unit
(** A zero-duration span at the current time (e.g. "zeus.deliver"). *)

(** {1 Collector} *)

val span_count : t -> int
val trace_count : t -> int
val spans : t -> span list
(** All spans in recording order. *)

val trace_ids : t -> int list
val trace_name : t -> int -> string option

val spans_of : t -> int -> span list
(** Spans of one trace, sorted by start time. *)

val trace_span : t -> int -> float
(** End-to-end duration of a trace: [max st1 - trace start]; [0.] for
    an unknown or empty trace. *)

type hop_stat = {
  hop : string;
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  max_s : float;
  total_bytes : int;
}

val hop_stats : ?hops:string list -> t -> hop_stat list
(** Latency percentiles per hop name, over every recorded span (all
    traces).  [hops] restricts and orders the result; by default every
    hop appears, ordered by earliest occurrence. *)

val critical_path : t -> int -> span list
(** The chain of spans ending at the trace's last event, walked
    backwards by time contiguity (a span's predecessor is the
    latest-ending span that finished by its start).  Root first. *)

val waterfall : ?max_spans:int -> t -> int -> string
(** Text waterfall of one trace: every span with its offset from the
    trace start, duration, hop name and nodes, ordered by start time.
    Truncated to [max_spans] (default 48) lines. *)

val hop_report : ?hops:string list -> t -> string
(** Text table of {!hop_stats}. *)

val percentile : float array -> float -> float
(** [percentile sorted p] with [p] in [0,1]; [nan] on empty input.
    Exposed for benches that aggregate their own samples. *)
