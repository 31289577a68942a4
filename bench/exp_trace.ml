(* End-to-end change tracing at Figure-14 fleet scale.

   Every write gets its own trace; the collector breaks the
   commit-to-client latency into the Zeus hops (commit, batch wait,
   fan-out, relay, notify, fetch) and the critical-path sum of each
   trace is checked against an *independently* measured end-to-end
   latency (issue-time markers embedded in the payload, exactly as
   exp_dist measures — no tracer involved).  If the spans are honest,
   the two agree.

   The run is then repeated with tracing off (same seed, same
   schedule): the traced and untraced fleets must move the same bytes
   and messages and fire the same callbacks — tracing is
   observationally free.

   The propagation tracker is sampled while the last write spreads,
   giving a coverage-vs-time series that must rise monotonically to
   1.0 — the `configerator whereis` signal, measured at scale.

   Results land in BENCH_trace.json; --quick shrinks the fleet for
   CI-style smoke runs. *)

module Engine = Cm_sim.Engine
module Topology = Cm_sim.Topology
module Net = Cm_sim.Net
module Zeus = Cm_zeus.Service
module Tracer = Cm_trace.Tracer
module Propagation = Cm_trace.Propagation

let quick = Render.quick
let regions = if quick then 2 else 4
let clusters = 2
let nodes_per_cluster = if quick then 10 else 30
let nconfigs = if quick then 3 else 6
let nevents = if quick then 4 else 8
let event_gap = 2.0
let payload_bytes = 512
let stagger = 0.02

let config_path i = Printf.sprintf "trace/cfg_%02d" i
let write_name path event = Printf.sprintf "write:%s@%d" path event

let payload event =
  let marker = Printf.sprintf "%06d|" event in
  marker ^ String.make (payload_bytes - String.length marker) 'x'

let hops =
  [
    "zeus.commit"; "zeus.batch_wait"; "zeus.stagger"; "zeus.fanout";
    "zeus.relay"; "zeus.notify"; "zeus.fetch_req"; "zeus.fetch";
  ]

type run = {
  r_bytes : int;
  r_msgs : int;
  r_callbacks : int;
  r_pairs : float array;  (** sorted (write, proxy) commit-to-proxy latencies *)
  r_write_e2e : (string, float) Hashtbl.t;
      (** write name -> slowest proxy's latency, measured via payload
          markers (independent of the tracer) *)
  r_tracer : Tracer.t option;
  r_coverage : (float * int * float) list;
      (** (time, last committed zxid, min coverage) samples, oldest
          first, taken while the final write round spreads *)
}

let run_fleet ~traced =
  let engine = Engine.create ~seed:11L () in
  let topo =
    Topology.create ~regions ~clusters_per_region:clusters ~nodes_per_cluster
  in
  let net = Net.create engine topo in
  let tracer =
    if traced then begin
      let tr = Tracer.create ~now:(fun () -> Engine.now engine) () in
      Net.set_tracer net tr;
      Some tr
    end
    else None
  in
  let zeus =
    Zeus.create ~params:{ Zeus.default_params with Zeus.fanout_stagger = stagger } net
  in
  let prop =
    if traced then begin
      let p = Propagation.create ~now:(fun () -> Engine.now engine) () in
      Zeus.set_propagation zeus p;
      Some p
    end
    else None
  in
  let callbacks = ref 0 in
  let issue_at = Hashtbl.create 64 in
  let pairs = ref [] in
  let write_e2e = Hashtbl.create 64 in
  Array.iter
    (fun (n : Topology.node) ->
      let proxy = Zeus.proxy_on zeus n.id in
      for i = 0 to nconfigs - 1 do
        let path = config_path i in
        Zeus.subscribe proxy ~path (fun ~zxid:_ data ->
            incr callbacks;
            let event = int_of_string (String.sub data 0 6) in
            match Hashtbl.find_opt issue_at event with
            | None -> ()
            | Some t0 ->
                let lat = Engine.now engine -. t0 in
                pairs := lat :: !pairs;
                let key = write_name path event in
                let cur =
                  Option.value ~default:0.0 (Hashtbl.find_opt write_e2e key)
                in
                if lat > cur then Hashtbl.replace write_e2e key lat)
      done)
    (Topology.nodes topo);
  Engine.run_for engine 1.0;
  let write_round event =
    Hashtbl.replace issue_at event (Engine.now engine);
    for i = 0 to nconfigs - 1 do
      let path = config_path i in
      let ctx =
        match tracer with
        | Some tr -> Tracer.new_trace tr ~name:(write_name path event)
        | None -> Tracer.none
      in
      Zeus.write ~ctx zeus ~path ~data:(payload event)
    done
  in
  for event = 1 to nevents - 1 do
    write_round event;
    Engine.run_for engine event_gap
  done;
  (* Final round: sample the propagation tracker while the change
     spreads, then settle. *)
  write_round nevents;
  let coverage = ref [] in
  let sample () =
    match prop with
    | None -> ()
    | Some p ->
        coverage :=
          (Engine.now engine, Zeus.last_committed_zxid zeus,
           Propagation.min_coverage_latest p ())
          :: !coverage
  in
  for _ = 1 to 150 do
    Engine.run_for engine 0.02;
    sample ()
  done;
  Engine.run_for engine 10.0;
  sample ();
  let sorted =
    let arr = Array.of_list !pairs in
    Array.sort Float.compare arr;
    arr
  in
  {
    r_bytes = Net.bytes_sent net;
    r_msgs = Net.messages_sent net;
    r_callbacks = !callbacks;
    r_pairs = sorted;
    r_write_e2e = write_e2e;
    r_tracer = tracer;
    r_coverage = List.rev !coverage;
  }

let sorted_of_list l =
  let arr = Array.of_list l in
  Array.sort Float.compare arr;
  arr

let run () =
  Render.section "trace" "End-to-end change tracing: per-hop latency breakdown";
  Render.note "fleet: %d regions x %d clusters x %d nodes, %d configs, %d write rounds%s"
    regions clusters nodes_per_cluster nconfigs nevents
    (if quick then " (quick)" else "");
  let tr = run_fleet ~traced:true in
  let un = run_fleet ~traced:false in
  let tracer = Option.get tr.r_tracer in
  let stats = Tracer.hop_stats ~hops tracer in
  Render.table
    ~header:[ "hop"; "count"; "p50"; "p90"; "p99"; "max"; "bytes" ]
    (List.map
       (fun (h : Tracer.hop_stat) ->
         [
           h.Tracer.hop;
           string_of_int h.Tracer.count;
           Printf.sprintf "%.1fms" (1000.0 *. h.Tracer.p50);
           Printf.sprintf "%.1fms" (1000.0 *. h.Tracer.p90);
           Printf.sprintf "%.1fms" (1000.0 *. h.Tracer.p99);
           Printf.sprintf "%.1fms" (1000.0 *. h.Tracer.max_s);
           Render.bytes h.Tracer.total_bytes;
         ])
       stats);
  (* Critical-path sum per trace vs the marker-measured end-to-end
     latency of the same write. *)
  let crit_sums, e2es =
    List.fold_left
      (fun (cs, es) tid ->
        match Tracer.trace_name tracer tid with
        | None -> (cs, es)
        | Some name -> (
            match Hashtbl.find_opt tr.r_write_e2e name with
            | Some e2e when e2e > 0.0 ->
                let crit =
                  List.fold_left
                    (fun acc s -> acc +. (s.Tracer.st1 -. s.Tracer.st0))
                    0.0
                    (Tracer.critical_path tracer tid)
                in
                (crit :: cs, e2e :: es)
            | _ -> (cs, es)))
      ([], []) (Tracer.trace_ids tracer)
  in
  let crit_sorted = sorted_of_list crit_sums in
  let e2e_sorted = sorted_of_list e2es in
  let crit_p50 = Tracer.percentile crit_sorted 0.50 in
  let crit_p99 = Tracer.percentile crit_sorted 0.99 in
  let e2e_p50 = Tracer.percentile e2e_sorted 0.50 in
  let e2e_p99 = Tracer.percentile e2e_sorted 0.99 in
  let ratio_p50 = crit_p50 /. e2e_p50 in
  let ratio_p99 = crit_p99 /. e2e_p99 in
  Render.kv "traces / spans"
    (Printf.sprintf "%d / %d" (Tracer.trace_count tracer) (Tracer.span_count tracer));
  Render.kv "e2e commit->proxy p50/p99 (markers)"
    (Printf.sprintf "%.0fms / %.0fms" (1000.0 *. e2e_p50) (1000.0 *. e2e_p99));
  Render.kv "critical-path hop sum p50/p99 (spans)"
    (Printf.sprintf "%.0fms / %.0fms" (1000.0 *. crit_p50) (1000.0 *. crit_p99));
  Render.kv "hop-sum / e2e ratio"
    (Printf.sprintf "%.3f (p50) %.3f (p99)" ratio_p50 ratio_p99);
  (* Coverage series: keep the samples taken after the final round's
     last commit (earlier samples straddle the batch window, where the
     latest zxid itself still moves). *)
  let final_zxid =
    List.fold_left (fun acc (_, z, _) -> max acc z) 0 tr.r_coverage
  in
  let series =
    List.filter_map
      (fun (t, z, c) -> if z = final_zxid then Some (t, c) else None)
      tr.r_coverage
  in
  let monotone =
    let rec check = function
      | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && check rest
      | _ -> true
    in
    check series
  in
  let cov_final = match List.rev series with (_, c) :: _ -> c | [] -> 0.0 in
  Render.kv "coverage after final round"
    (Printf.sprintf "%s (%d samples)" (Render.pctf cov_final) (List.length series));
  Render.series ~label:"coverage rise" ~unit:""
    (Array.of_list (List.map snd series));
  (* Zero-cost-when-off: same wire traffic, same callbacks, same
     latencies with the tracer detached. *)
  let overhead_bytes = tr.r_bytes - un.r_bytes in
  let overhead_msgs = tr.r_msgs - un.r_msgs in
  let e2e_identical = tr.r_pairs = un.r_pairs && tr.r_callbacks = un.r_callbacks in
  Render.kv "callbacks traced / untraced"
    (Printf.sprintf "%d / %d" tr.r_callbacks un.r_callbacks);
  let doc =
    Cm_json.Value.(
      Assoc
        [
          "experiment", String "trace";
          ( "fleet",
            Assoc
              [
                "regions", Int regions;
                "clusters_per_region", Int clusters;
                "nodes_per_cluster", Int nodes_per_cluster;
                "configs", Int nconfigs;
                "write_rounds", Int nevents;
              ] );
          ( "hops",
            List
              (List.map
                 (fun (h : Tracer.hop_stat) ->
                   Assoc
                     [
                       "hop", String h.Tracer.hop;
                       "count", Int h.Tracer.count;
                       "p50_s", Float h.Tracer.p50;
                       "p90_s", Float h.Tracer.p90;
                       "p99_s", Float h.Tracer.p99;
                       "max_s", Float h.Tracer.max_s;
                       "bytes", Int h.Tracer.total_bytes;
                     ])
                 stats) );
          "traces", Int (Tracer.trace_count tracer);
          "spans", Int (Tracer.span_count tracer);
          "e2e_p50_s", Float e2e_p50;
          "e2e_p99_s", Float e2e_p99;
          "hop_sum_p50_s", Float crit_p50;
          "hop_sum_p99_s", Float crit_p99;
          "hop_sum_over_e2e_p50", Float ratio_p50;
          "hop_sum_over_e2e_p99", Float ratio_p99;
          "coverage_final", Float cov_final;
          ( "coverage_series",
            List
              (List.map
                 (fun (t, c) -> Assoc [ "t_s", Float t; "coverage", Float c ])
                 series) );
          "overhead_bytes", Int overhead_bytes;
          "overhead_msgs", Int overhead_msgs;
          ( "commit_to_client_p99_s",
            Float (Tracer.percentile tr.r_pairs 0.99) );
        ])
  in
  Render.write_json ~file:"BENCH_trace.json" doc
    ~gates:
      [
        Render.gate "hop_sum_over_e2e_p50_deviation"
          (Float.abs (ratio_p50 -. 1.0)) Render.Le 0.25;
        Render.gate "hop_sum_over_e2e_p99_deviation"
          (Float.abs (ratio_p99 -. 1.0)) Render.Le 0.25;
        Render.holds "coverage_monotone" monotone;
        Render.holds "e2e_identical" e2e_identical;
        Render.gate "overhead_bytes" (float_of_int overhead_bytes) Render.Eq 0.0;
        Render.gate "overhead_msgs" (float_of_int overhead_msgs) Render.Eq 0.0;
      ];
  Render.note "wrote BENCH_trace.json"
