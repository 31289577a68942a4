(* Fleet-scale simulation: one engine, one simulated day, 100k servers
   and 1M mobile devices.

   The point of the run is the harness itself: Cohort aggregation (one
   event stream per cluster of statistically identical Zeus proxies,
   one per thousand identical devices) keeps the event count
   proportional to *distinct behaviors*, not fleet size, while
   Net.send ~copies and weighted histograms keep bytes, messages and
   latency percentiles exact.

   Each sweep cell simulates a full diurnal day:

   - Zeus distributes config writes shaped by the configerator commit
     profile (Commits.rate_at) to a per-cluster cohort proxy
     subscribed to the hot paths; commit-to-proxy latency is recorded
     with the cohort's weight;
   - a 10x-larger device fleet runs hourly MobileConfig polls through
     weighted device representatives, with an emergency push (feature
     kill) mid-afternoon;
   - PackageVessel spreads a 64MB package to every cluster, cohort
     replication filling each cluster out;
   - a no-op rewrite of every hot path at end of day checks the dedup
     path still fires zero callbacks at fleet scale;
   - a mid-day "trace targets one member" event expands a single
     cohort member into an individual proxy (Cohort.expand), then
     crashes and restarts just that member, leaving the other ~499
     aggregated.

   Headline: simulated events per wall-clock second, and the wall time
   for the 100k-server / 1M-device day.  The full sweep writes
   BENCH_fleet_full.json; --quick shrinks it to one 10k-server /
   100k-device cell for CI and writes BENCH_fleet.json, so a quick run
   never overwrites a full one. *)

module Engine = Cm_sim.Engine
module Topology = Cm_sim.Topology
module Net = Cm_sim.Net
module Rng = Cm_sim.Rng
module Metrics = Cm_sim.Metrics
module Cohort = Cm_sim.Cohort
module Zeus = Cm_zeus.Service
module Swarm = Cm_packagevessel.Swarm
module Commits = Cm_workload.Commits

let quick = Render.quick

let regions = 5
let nodes_per_cluster = 500

(* (clusters_per_region, write-rate multiplier); servers = 5 * c * 500. *)
let cells =
  if quick then [ 4, 1.0 ]
  else [ 10, 1.0; 20, 1.0; 40, 1.0; 40, 4.0 ]

let device_ratio = 10 (* devices = 10x servers *)
let device_reps servers = if quick then 200 else max 200 (servers / 100)
let base_writes_per_day = if quick then 500.0 else 2000.0
let hot_paths = 8
let payload_bytes = 512
let day = 86400.0

let config_path i = Printf.sprintf "fleet/cfg_%02d" i

(* Payloads carry their submit time so delivery callbacks can compute
   propagation latency without a side channel (fig14 idiom). *)
let payload now =
  let marker = Printf.sprintf "%014.3f|" now in
  marker ^ String.make (payload_bytes - String.length marker) 'x'

let submit_time_of data = float_of_string (String.sub data 0 14)

(* Ensemble members occupy the tail of cluster 0 of region (i mod
   regions); with 5 regions and followers=4 that is exactly the last
   node of each region's cluster 0. *)
let ensemble_tail ~region:_ ~cluster =
  if cluster = 0 then 1 else 0

type cell_result = {
  r_servers : int;
  r_devices : int;
  r_mult : float;
  r_writes : int;
  r_deliveries_w : int;
  r_p50 : float;
  r_p99 : float;
  r_bytes : int;
  r_msgs : int;
  r_noop_callbacks : int;
  r_noop_bytes : int;
  r_device_syncs_w : int;
  r_kill_coverage : float;
  r_pv_weight : int;
  r_expanded_deliveries : int;
  r_events : int;
  r_wall_s : float;
  r_eps : float;
}

let run_cell ~clusters ~mult =
  let servers = regions * clusters * nodes_per_cluster in
  let devices = servers * device_ratio in
  let wall0 = Unix.gettimeofday () in
  let engine = Engine.create ~seed:11L () in
  let topo =
    Topology.create ~regions ~clusters_per_region:clusters ~nodes_per_cluster
  in
  let net = Net.create engine topo in
  let zeus = Zeus.create net in
  let rng = Rng.create 77L in
  let latencies = Metrics.Histogram.create () in
  let callbacks = ref 0 in
  (* --- server plane: one cohort proxy per cluster ------------------ *)
  let subscribe_paths proxy record =
    for i = 0 to hot_paths - 1 do
      Zeus.subscribe proxy ~path:(config_path i) (fun ~zxid:_ data ->
          incr callbacks;
          record (Engine.now engine -. submit_time_of data))
    done
  in
  let cohorts =
    List.concat_map
      (fun region ->
        List.init clusters (fun cluster ->
            let c =
              Cohort.of_cluster topo ~region ~cluster
                ~skip_head:Zeus.default_params.Zeus.observers_per_cluster
                ~skip_tail:(ensemble_tail ~region ~cluster)
            in
            let proxy = Zeus.proxy_on zeus ~weight:(Cohort.weight c) (Cohort.node c) in
            Cohort.on_resize c (fun w -> Zeus.set_proxy_weight proxy w);
            subscribe_paths proxy (fun dt -> Cohort.record c latencies dt);
            c, proxy))
      (List.init regions Fun.id)
  in
  (* --- device plane: weighted MobileConfig representatives --------- *)
  let module Translation = Cm_mobileconfig.Translation in
  let module MServer = Cm_mobileconfig.Server in
  let module Device = Cm_mobileconfig.Device in
  let translation = Translation.create () in
  Translation.bind translation ~cls:"App" ~field:"buggy_feature"
    (Translation.Const (Cm_json.Value.Bool true));
  let resolver =
    {
      Translation.gatekeeper = Cm_gatekeeper.Runtime.create ();
      experiments = [];
      ctx = { Cm_gatekeeper.Restraint.laser = None };
    }
  in
  let mserver = MServer.create engine ~translation ~resolver in
  let schema = Cm_thrift.Idl.parse_exn "struct App { 1: bool buggy_feature; }" in
  let nreps = device_reps servers in
  let dev_weight = devices / nreps in
  let fleet =
    List.init nreps (fun _ ->
        let device =
          Device.create engine mserver ~weight:dev_weight
            ~user:(Cm_gatekeeper.User.random rng)
            ~cls:"App" ~schema ~poll_interval:3600.0
        in
        (* Stagger first syncs across the first poll interval. *)
        ignore
          (Engine.schedule engine ~delay:(Rng.float rng 3600.0) (fun () ->
               Device.start device));
        device)
  in
  (* --- package plane: one swarm fetch per cluster ------------------ *)
  let storage = Topology.cluster_base topo ~region:0 ~cluster:0 + 3 in
  let swarm = Swarm.create net ~storage in
  let pkg = { Swarm.cname = "app.pkg"; cversion = 1; csize = 64 * 1024 * 1024 } in
  (* --- the day ----------------------------------------------------- *)
  Engine.run_for engine 60.0;
  Net.reset_counters net;
  (* Diurnal write load: the configerator hourly commit profile,
     scaled so the day totals ~base_writes_per_day * mult. *)
  let prod_daily =
    let total = ref 0.0 in
    for h = 0 to 23 do
      total := !total +. Commits.rate_at Commits.configerator ~day:0.5 ~hour_of_day:(float_of_int h)
    done;
    !total
  in
  let scale = base_writes_per_day *. mult /. prod_daily in
  let writes = ref 0 in
  let rec write_loop () =
    let now = Engine.now engine in
    let hour = Float.rem (now /. 3600.0) 24.0 in
    let per_second = Commits.rate_at Commits.configerator ~day:0.5 ~hour_of_day:hour *. scale /. 3600.0 in
    let gap = Rng.exponential rng (1.0 /. Float.max 1e-9 per_second) in
    ignore
      (Engine.schedule engine ~delay:gap (fun () ->
           incr writes;
           let path = config_path (Rng.int rng hot_paths) in
           Zeus.write zeus ~path ~data:(payload (Engine.now engine));
           if Engine.now engine < day then write_loop ()))
  in
  write_loop ();
  (* 06:00 — publish the day's package and fan it to every cluster. *)
  ignore
    (Engine.at engine ~time:21600.0 (fun () ->
         Swarm.publish swarm pkg;
         List.iter
           (fun (c, _) ->
             Swarm.fetch swarm ~node:(Cohort.node c) ~mode:Swarm.P2p_local
               ~weight:(Cohort.weight c) pkg ~on_complete:(fun () -> ()))
           cohorts));
  (* 14:00 — emergency feature kill over push, polls mop up. *)
  ignore
    (Engine.at engine ~time:50400.0 (fun () ->
         Translation.bind translation ~cls:"App" ~field:"buggy_feature"
           (Translation.Const (Cm_json.Value.Bool false));
         MServer.set_translation mserver translation;
         MServer.emergency_push mserver ~cls:"App" ~loss_prob:0.1
           ~latency:(fun () -> 0.5 +. Rng.float rng 2.0)));
  (* 15:00 — a trace targets one member of one cohort: expand it into
     an individual proxy, then fault just that member. *)
  let expanded_deliveries = ref 0 in
  ignore
    (Engine.at engine ~time:54000.0 (fun () ->
         let c, _ = List.nth cohorts (min 3 (List.length cohorts - 1)) in
         Cohort.on_expand c (fun _i node ->
             let p = Zeus.proxy_on zeus node in
             subscribe_paths p (fun dt ->
                 incr expanded_deliveries;
                 Metrics.Histogram.add latencies dt);
             ignore
               (Engine.schedule engine ~delay:3600.0 (fun () -> Zeus.crash_proxy p));
             ignore
               (Engine.schedule engine ~delay:5400.0 (fun () -> Zeus.restart_proxy p)));
         ignore (Cohort.expand c 7)));
  Engine.run ~until:(day +. 60.0) engine;
  (* --- end-of-day no-op rewrite: dedup must hold at fleet scale ---- *)
  let noop_bytes0 = Net.bytes_sent net in
  let noop_callbacks0 = !callbacks in
  for i = 0 to hot_paths - 1 do
    match Zeus.committed_value zeus (config_path i) with
    | Some current -> Zeus.write zeus ~path:(config_path i) ~data:current
    | None -> ()
  done;
  Engine.run ~until:(day +. 180.0) engine;
  let wall_s = Unix.gettimeofday () -. wall0 in
  let deliveries_w =
    List.fold_left (fun acc (_, p) -> acc + Zeus.deliveries_weighted p) 0 cohorts
    + !expanded_deliveries
  in
  let device_syncs_w =
    List.fold_left (fun acc d -> acc + Device.syncs_completed d) 0 fleet
  in
  let killed_w =
    List.fold_left
      (fun acc d ->
        if not (Device.get_bool d "buggy_feature") then acc + Device.weight d
        else acc)
      0 fleet
  in
  let events = Engine.events_processed engine in
  {
    r_servers = servers;
    r_devices = devices;
    r_mult = mult;
    r_writes = !writes;
    r_deliveries_w = deliveries_w;
    r_p50 = Metrics.Histogram.quantile latencies 0.5;
    r_p99 = Metrics.Histogram.quantile latencies 0.99;
    r_bytes = Net.bytes_sent net;
    r_msgs = Net.messages_sent net;
    r_noop_callbacks = !callbacks - noop_callbacks0;
    r_noop_bytes = Net.bytes_sent net - noop_bytes0;
    r_device_syncs_w = device_syncs_w;
    r_kill_coverage = float_of_int killed_w /. float_of_int devices;
    r_pv_weight = Swarm.completed_weight swarm pkg;
    r_expanded_deliveries = !expanded_deliveries;
    r_events = events;
    r_wall_s = wall_s;
    r_eps = float_of_int events /. Float.max 1e-9 wall_s;
  }

let json_of_cell r =
  Cm_json.Value.(
    Assoc
      [
        "servers", Int r.r_servers;
        "devices", Int r.r_devices;
        "update_rate", Float r.r_mult;
        "writes", Int r.r_writes;
        "deliveries_weighted", Int r.r_deliveries_w;
        "p50_s", Float r.r_p50;
        "p99_s", Float r.r_p99;
        "bytes", Int r.r_bytes;
        "messages", Int r.r_msgs;
        "noop_callbacks", Int r.r_noop_callbacks;
        "noop_bytes", Int r.r_noop_bytes;
        "device_syncs_weighted", Int r.r_device_syncs_w;
        "kill_coverage", Float r.r_kill_coverage;
        "pv_completed_weight", Int r.r_pv_weight;
        "expanded_deliveries", Int r.r_expanded_deliveries;
        "events", Int r.r_events;
        "wall_s", Float r.r_wall_s;
        "events_per_s", Int (int_of_float r.r_eps);
      ])

let run () =
  Render.section "fleet"
    "Fleet-scale simulation: cohort-aggregated diurnal day";
  Render.note "sweep: %d cells, %d regions x C clusters x %d nodes%s"
    (List.length cells) regions nodes_per_cluster
    (if quick then " (quick)" else "");
  let results =
    List.map (fun (clusters, mult) -> run_cell ~clusters ~mult) cells
  in
  Render.table
    ~header:
      [ "servers"; "devices"; "rate"; "writes"; "p50"; "p99"; "bytes";
        "events"; "wall"; "events/s" ]
    (List.map
       (fun r ->
         [
           string_of_int r.r_servers;
           string_of_int r.r_devices;
           Render.f1 r.r_mult;
           string_of_int r.r_writes;
           Printf.sprintf "%.2fs" r.r_p50;
           Printf.sprintf "%.2fs" r.r_p99;
           Render.bytes r.r_bytes;
           string_of_int r.r_events;
           Printf.sprintf "%.1fs" r.r_wall_s;
           string_of_int (int_of_float r.r_eps);
         ])
       results);
  (* Headline: the biggest fleet at nominal rate. *)
  let headline =
    List.fold_left
      (fun best r ->
        if r.r_servers > best.r_servers
           || (r.r_servers = best.r_servers && r.r_mult < best.r_mult)
        then r
        else best)
      (List.hd results) results
  in
  Render.kv "headline fleet"
    (Printf.sprintf "%d servers + %d devices in one run" headline.r_servers
       headline.r_devices);
  Render.kv "headline day wall time" (Printf.sprintf "%.1fs" headline.r_wall_s);
  Render.kv "headline events/sec" (string_of_int (int_of_float headline.r_eps));
  Render.kv "package cohort coverage"
    (Printf.sprintf "%d / %d servers" headline.r_pv_weight headline.r_servers);
  Render.kv "emergency-kill device coverage"
    (Render.pctf headline.r_kill_coverage);
  let doc =
    Cm_json.Value.(
      Assoc
        [
          "experiment", String "fleet-scale";
          ( "fleet",
            Assoc
              [
                "regions", Int regions;
                "nodes_per_cluster", Int nodes_per_cluster;
                "device_ratio", Int device_ratio;
              ] );
          "rows", List (List.map json_of_cell results);
          "headline_servers", Int headline.r_servers;
          "headline_devices", Int headline.r_devices;
          "headline_wall_s", Float headline.r_wall_s;
          "events_per_s", Int (int_of_float headline.r_eps);
        ])
  in
  (* The quick cell does >1M events/s on a dev machine; 50k/s is the
     sandbagged floor that still catches an accidental return to
     per-member event streams. *)
  let file = if quick then "BENCH_fleet.json" else "BENCH_fleet_full.json" in
  Render.write_json ~file doc
    ~gates:
      [
        Render.gate "events_per_s" headline.r_eps Render.Ge 50_000.0;
        Render.gate "noop_callbacks" (float_of_int headline.r_noop_callbacks)
          Render.Eq 0.0;
      ];
  Render.note "wrote %s" file
