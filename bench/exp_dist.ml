(* Distribution-plane performance: the legacy one-message-per-write
   protocol (Zeus.legacy_params) vs the optimized hot path
   (content-hash dedup + batched, coalesced fan-out + two-level relay
   tree + indexed commit log) at fleet scale.

   Two phases per protocol, identical write schedules and fan-out
   stagger so the comparison isolates the protocol:

   - steady: commit events touch every tracked config with fresh
     ~512-byte payloads; we measure commit-to-proxy propagation latency
     (p50/p99 across every (write, proxy) pair), total bytes/messages
     on the wire, and the leader's egress;
   - no-op: every config is rewritten with byte-identical content (a
     rolled-back change landing between two tailer polls); the
     optimized protocol ships digests only and proxies ack from cache,
     so the phase should cost a small fraction of legacy bytes and
     fire zero watcher callbacks.

   The optimized run also feeds a Cm_monitor.Service configured with
   Rules.distribution — monitoring the config-distribution plane with
   the config-driven monitoring stack it distributes.

   Results land in BENCH_distribution.json; --quick shrinks the fleet
   for CI-style smoke runs. *)

module Engine = Cm_sim.Engine
module Topology = Cm_sim.Topology
module Net = Cm_sim.Net
module Zeus = Cm_zeus.Service
module Monitor = Cm_monitor.Service
module Rules = Cm_monitor.Rules

let quick = Render.quick
let regions = if quick then 2 else 4
let clusters = 2
let nodes_per_cluster = if quick then 10 else 30
let nconfigs = if quick then 4 else 8
let nevents = if quick then 6 else 10
let event_gap = 2.0
let payload_bytes = 512
let stagger = 0.02 (* same serialization cost per fan-out slot in both runs *)

let config_path i = Printf.sprintf "dist/cfg_%02d" i

(* Payloads carry "<event>|" so delivery callbacks can look up the
   write's issue time without any side channel. *)
let payload event =
  let marker = Printf.sprintf "%06d|" event in
  marker ^ String.make (payload_bytes - String.length marker) 'x'

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1))))

type phase = {
  ph_bytes : int;
  ph_msgs : int;
  ph_egress : int;  (** leader egress bytes *)
  ph_callbacks : int;
}

type result = {
  name : string;
  p50 : float;
  p99 : float;
  steady : phase;
  noop : phase;
  stats : Zeus.stats;
  dashboard : string option;
  pages : int;
}

let run_protocol ~name ~params ~with_monitor =
  let engine = Engine.create ~seed:7L () in
  let topo =
    Topology.create ~regions ~clusters_per_region:clusters ~nodes_per_cluster
  in
  let net = Net.create engine topo in
  let zeus = Zeus.create ~params net in
  let leader = Zeus.leader_node zeus in
  let nnodes = Array.length (Topology.nodes topo) in
  let callbacks = ref 0 in
  let issue_at = Hashtbl.create 64 in
  let latencies = ref [] in
  let proxies =
    List.init nnodes (fun node ->
        let proxy = Zeus.proxy_on zeus node in
        for i = 0 to nconfigs - 1 do
          Zeus.subscribe proxy ~path:(config_path i) (fun ~zxid:_ data ->
              incr callbacks;
              match Hashtbl.find_opt issue_at (String.sub data 0 6) with
              | Some t0 -> latencies := (Engine.now engine -. t0) :: !latencies
              | None -> ())
        done;
        proxy)
  in
  Engine.run_for engine 5.0;
  (* The monitor watches the watchers: Zeus gauges exported from the
     leader node, composed with an application source via
     merge_sources, under the distribution rule set. *)
  let last_write_at = Hashtbl.create 16 in
  let sample_proxies =
    List.filteri (fun i _ -> i mod (max 1 (nnodes / 8)) = 0) proxies
  in
  let zeus_source ~node ~metric =
    if node <> leader then None
    else
      match metric with
      | "zeus.leader_egress_kb" ->
          Some (float_of_int (Net.egress_bytes net leader) /. 1024.0)
      | "zeus.fetches_skipped" ->
          Some (float_of_int (Zeus.stats zeus).Zeus.fetches_skipped)
      | "zeus.payloads_deduped" ->
          Some (float_of_int (Zeus.stats zeus).Zeus.payloads_deduped)
      | "zeus.staleness_s" ->
          (* Seconds the slowest sampled proxy has been behind the
             committed value of any tracked config. *)
          let now = Engine.now engine in
          let worst = ref 0.0 in
          for i = 0 to nconfigs - 1 do
            let path = config_path i in
            match Zeus.committed_value zeus path, Hashtbl.find_opt last_write_at path with
            | Some v, Some t0 ->
                if
                  List.exists
                    (fun proxy -> Zeus.proxy_get proxy path <> Some v)
                    sample_proxies
                then worst := Float.max !worst (now -. t0)
            | _ -> ()
          done;
          Some !worst
      | _ -> None
  in
  let app_source ~node:_ ~metric =
    if metric = "error_rate" then Some 0.0 else None
  in
  let monitor =
    if with_monitor then
      Some
        (Monitor.create ~rules:Rules.distribution net
           ~source:(Monitor.merge_sources [ app_source; zeus_source ]))
    else None
  in
  (* Initial values so the no-op phase has bytes to re-send. *)
  for i = 0 to nconfigs - 1 do
    Hashtbl.replace last_write_at (config_path i) (Engine.now engine);
    Zeus.write zeus ~path:(config_path i) ~data:(payload 0)
  done;
  Hashtbl.replace issue_at "000000" (Engine.now engine);
  Engine.run_for engine 10.0;
  (* --- steady phase: fresh payloads ------------------------------- *)
  Net.reset_counters net;
  latencies := [];
  let steady_callbacks0 = !callbacks in
  for event = 1 to nevents do
    let now = Engine.now engine in
    Hashtbl.replace issue_at (Printf.sprintf "%06d" event) now;
    for i = 0 to nconfigs - 1 do
      Hashtbl.replace last_write_at (config_path i) now;
      Zeus.write zeus ~path:(config_path i) ~data:(payload event)
    done;
    Engine.run_for engine event_gap
  done;
  Engine.run_for engine 20.0;
  let steady =
    {
      ph_bytes = Net.bytes_sent net;
      ph_msgs = Net.messages_sent net;
      ph_egress = Net.egress_bytes net leader;
      ph_callbacks = !callbacks - steady_callbacks0;
    }
  in
  let sorted =
    let arr = Array.of_list !latencies in
    Array.sort Float.compare arr;
    arr
  in
  (* --- no-op phase: byte-identical rewrites ------------------------ *)
  Net.reset_counters net;
  let noop_callbacks0 = !callbacks in
  for i = 0 to nconfigs - 1 do
    let path = config_path i in
    match Zeus.committed_value zeus path with
    | Some current ->
        Hashtbl.replace last_write_at path (Engine.now engine);
        Zeus.write zeus ~path ~data:current
    | None -> failwith "exp_dist: missing committed value"
  done;
  Engine.run_for engine 20.0;
  let noop =
    {
      ph_bytes = Net.bytes_sent net;
      ph_msgs = Net.messages_sent net;
      ph_egress = Net.egress_bytes net leader;
      ph_callbacks = !callbacks - noop_callbacks0;
    }
  in
  let dashboard = Option.map Monitor.dashboard_text monitor in
  let pages =
    match monitor with Some m -> List.length (Monitor.pages m) | None -> 0
  in
  Option.iter Monitor.stop monitor;
  {
    name;
    p50 = percentile sorted 0.50;
    p99 = percentile sorted 0.99;
    steady;
    noop;
    stats = Zeus.stats zeus;
    dashboard;
    pages;
  }

let json_of_result r =
  Cm_json.Value.(
    Assoc
      [
        "protocol", String r.name;
        "steady_p50_s", Float r.p50;
        "steady_p99_s", Float r.p99;
        "steady_bytes", Int r.steady.ph_bytes;
        "steady_msgs", Int r.steady.ph_msgs;
        "steady_leader_egress_bytes", Int r.steady.ph_egress;
        "steady_callbacks", Int r.steady.ph_callbacks;
        "noop_bytes", Int r.noop.ph_bytes;
        "noop_msgs", Int r.noop.ph_msgs;
        "noop_leader_egress_bytes", Int r.noop.ph_egress;
        "noop_callbacks", Int r.noop.ph_callbacks;
        "leader_batches", Int r.stats.Zeus.leader_batches;
        "payloads_deduped", Int r.stats.Zeus.payloads_deduped;
        "writes_coalesced", Int r.stats.Zeus.writes_coalesced;
        "fetches", Int r.stats.Zeus.fetches;
        "fetches_skipped", Int r.stats.Zeus.fetches_skipped;
        "notify_msgs", Int r.stats.Zeus.notify_msgs;
        "pages", Int r.pages;
      ])

let write_json legacy optimized =
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  let doc =
    Cm_json.Value.(
      Assoc
        [
          "experiment", String "distribution-plane";
          ( "fleet",
            Assoc
              [
                "regions", Int regions;
                "clusters_per_region", Int clusters;
                "nodes_per_cluster", Int nodes_per_cluster;
                "configs", Int nconfigs;
              ] );
          "rows", List [ json_of_result legacy; json_of_result optimized ];
          "steady_bytes_ratio", Float (ratio legacy.steady.ph_bytes optimized.steady.ph_bytes);
          "noop_bytes_ratio", Float (ratio legacy.noop.ph_bytes optimized.noop.ph_bytes);
          "egress_ratio", Float (ratio legacy.steady.ph_egress optimized.steady.ph_egress);
          "p99_legacy_s", Float legacy.p99;
          "p99_optimized_s", Float optimized.p99;
        ])
  in
  Render.write_json ~file:"BENCH_distribution.json" doc
    ~gates:
      [
        Render.gate "noop_callbacks_optimized"
          (float_of_int optimized.noop.ph_callbacks) Render.Eq 0.0;
      ]

let run () =
  Render.section "dist"
    "Distribution plane: dedup + batched fan-out + relays vs legacy";
  Render.note "fleet: %d regions x %d clusters x %d nodes, %d configs, %d commit events%s"
    regions clusters nodes_per_cluster nconfigs nevents
    (if quick then " (quick)" else "");
  let legacy = run_protocol ~name:"legacy" ~params:{ Zeus.legacy_params with Zeus.fanout_stagger = stagger } ~with_monitor:false in
  let optimized = run_protocol ~name:"optimized" ~params:{ Zeus.default_params with Zeus.fanout_stagger = stagger } ~with_monitor:true in
  Render.table
    ~header:
      [ "protocol"; "p50"; "p99"; "steady bytes"; "egress"; "msgs";
        "noop bytes"; "noop callbacks" ]
    (List.map
       (fun r ->
         [
           r.name;
           Printf.sprintf "%.0fms" (1000.0 *. r.p50);
           Printf.sprintf "%.0fms" (1000.0 *. r.p99);
           Render.bytes r.steady.ph_bytes;
           Render.bytes r.steady.ph_egress;
           string_of_int r.steady.ph_msgs;
           Render.bytes r.noop.ph_bytes;
           string_of_int r.noop.ph_callbacks;
         ])
       [ legacy; optimized ]);
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  Render.kv "no-op bytes reduction (target >= 5x)"
    (Printf.sprintf "%.1fx" (ratio legacy.noop.ph_bytes optimized.noop.ph_bytes));
  Render.kv "steady bytes reduction"
    (Printf.sprintf "%.1fx" (ratio legacy.steady.ph_bytes optimized.steady.ph_bytes));
  Render.kv "leader egress reduction"
    (Printf.sprintf "%.1fx" (ratio legacy.steady.ph_egress optimized.steady.ph_egress));
  Render.kv "deduped fan-outs / skipped fetches"
    (Printf.sprintf "%d / %d" optimized.stats.Zeus.payloads_deduped
       optimized.stats.Zeus.fetches_skipped);
  (match optimized.dashboard with
  | Some text ->
      Render.note "distribution dashboard (config-driven monitoring):";
      String.split_on_char '\n' text |> List.iter (Render.note "%s");
      Render.kv "propagation-stall pages" (string_of_int optimized.pages)
  | None -> ());
  write_json legacy optimized;
  Render.note "wrote BENCH_distribution.json"
