module Engine = Cm_sim.Engine
module Topology = Cm_sim.Topology
module Net = Cm_sim.Net
module Zeus = Cm_zeus.Service
module Pull = Cm_zeus.Pull

let setup ?(seed = 42L) ?(regions = 2) ?(clusters = 2) ?(nodes = 20) ?params () =
  let engine = Engine.create ~seed () in
  let topo =
    Topology.create ~regions ~clusters_per_region:clusters ~nodes_per_cluster:nodes
  in
  let net = Net.create engine topo in
  let zeus = Zeus.create ?params net in
  engine, topo, zeus

let w path data = { Zeus.path; data; digest = None; ctx = Cm_trace.Tracer.none }

let basic_tests =
  [
    Alcotest.test_case "write commits and reaches subscriber" `Quick (fun () ->
        let engine, _, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 5 in
        let got = ref [] in
        Zeus.subscribe proxy ~path:"cfg/a" (fun ~zxid data -> got := (zxid, data) :: !got);
        Zeus.write zeus ~path:"cfg/a" ~data:"v1";
        Engine.run_for engine 10.0;
        Alcotest.(check int) "committed" 1 (Zeus.last_committed_zxid zeus);
        Alcotest.(check (option string)) "leader value" (Some "v1")
          (Zeus.committed_value zeus "cfg/a");
        Alcotest.(check (list (pair int string))) "delivered" [ 1, "v1" ] (List.rev !got);
        Alcotest.(check (option string)) "proxy_get" (Some "v1")
          (Zeus.proxy_get proxy "cfg/a"));
    Alcotest.test_case "subscribe after write gets current value" `Quick (fun () ->
        let engine, _, zeus = setup () in
        Zeus.write zeus ~path:"cfg/late" ~data:"v1";
        Engine.run_for engine 10.0;
        let proxy = Zeus.proxy_on zeus 7 in
        let got = ref [] in
        Zeus.subscribe proxy ~path:"cfg/late" (fun ~zxid:_ data -> got := data :: !got);
        Engine.run_for engine 10.0;
        Alcotest.(check (list string)) "initial value" [ "v1" ] !got);
    Alcotest.test_case "multiple updates delivered in order" `Quick (fun () ->
        let engine, _, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 3 in
        Zeus.subscribe proxy ~path:"cfg/x" (fun ~zxid:_ _ -> ());
        for i = 1 to 20 do
          Zeus.write zeus ~path:"cfg/x" ~data:("v" ^ string_of_int i);
          Engine.run_for engine 0.5
        done;
        Engine.run_for engine 20.0;
        let log = Zeus.delivery_log proxy in
        let zxids = List.map snd log in
        Alcotest.(check bool) "monotone zxids" true
          (List.sort Int.compare zxids = zxids);
        Alcotest.(check (option string)) "final value" (Some "v20")
          (Zeus.proxy_get proxy "cfg/x"));
    Alcotest.test_case "two subscribers on one proxy both fire" `Quick (fun () ->
        let engine, _, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 2 in
        let a = ref 0 and b = ref 0 in
        Zeus.subscribe proxy ~path:"cfg/s" (fun ~zxid:_ _ -> incr a);
        Zeus.subscribe proxy ~path:"cfg/s" (fun ~zxid:_ _ -> incr b);
        Zeus.write zeus ~path:"cfg/s" ~data:"v";
        Engine.run_for engine 10.0;
        Alcotest.(check (pair int int)) "both" (1, 1) (!a, !b));
    Alcotest.test_case "proxies only get subscribed paths" `Quick (fun () ->
        let engine, _, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 4 in
        Zeus.subscribe proxy ~path:"cfg/mine" (fun ~zxid:_ _ -> ());
        Zeus.write zeus ~path:"cfg/other" ~data:"x";
        Engine.run_for engine 10.0;
        Alcotest.(check (option string)) "not cached" None (Zeus.proxy_get proxy "cfg/other"));
    Alcotest.test_case "all observers converge" `Quick (fun () ->
        let engine, _, zeus = setup () in
        for i = 1 to 5 do
          Zeus.write zeus ~path:("cfg/" ^ string_of_int i) ~data:"d"
        done;
        Engine.run_for engine 20.0;
        for region = 0 to 1 do
          for cluster = 0 to 1 do
            for i = 0 to 1 do
              Alcotest.(check int)
                (Printf.sprintf "observer r%d c%d #%d" region cluster i)
                5
                (Zeus.observer_last_zxid zeus ~region ~cluster i)
            done
          done
        done);
  ]

let failure_tests =
  [
    Alcotest.test_case "observer crash: proxy reconnects and still receives" `Quick
      (fun () ->
        let engine, _, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 10 in
        Zeus.subscribe proxy ~path:"cfg/f" (fun ~zxid:_ _ -> ());
        Zeus.write zeus ~path:"cfg/f" ~data:"v1";
        Engine.run_for engine 10.0;
        (* Kill both observers of the proxy's cluster (region 0 cluster 0
           hosts nodes 0..19; node 10 is there). *)
        Zeus.crash_observer zeus ~region:0 ~cluster:0 0;
        Zeus.crash_observer zeus ~region:0 ~cluster:0 1;
        Engine.run_for engine 10.0;
        Zeus.write zeus ~path:"cfg/f" ~data:"v2";
        Engine.run_for engine 30.0;
        Alcotest.(check (option string)) "still updated" (Some "v2")
          (Zeus.proxy_get proxy "cfg/f"));
    Alcotest.test_case "observer restart catches up" `Quick (fun () ->
        let engine, _, zeus = setup () in
        Zeus.crash_observer zeus ~region:1 ~cluster:1 0;
        for i = 1 to 8 do
          Zeus.write zeus ~path:("cfg/c" ^ string_of_int i) ~data:"d"
        done;
        Engine.run_for engine 10.0;
        Alcotest.(check int) "behind" 0 (Zeus.observer_last_zxid zeus ~region:1 ~cluster:1 0);
        Zeus.restart_observer zeus ~region:1 ~cluster:1 0;
        Engine.run_for engine 30.0;
        Alcotest.(check int) "caught up" 8
          (Zeus.observer_last_zxid zeus ~region:1 ~cluster:1 0));
    Alcotest.test_case "leader failover preserves committed writes" `Quick (fun () ->
        let engine, _, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 6 in
        Zeus.subscribe proxy ~path:"cfg/l" (fun ~zxid:_ _ -> ());
        Zeus.write zeus ~path:"cfg/l" ~data:"before";
        Engine.run_for engine 10.0;
        let old_leader = Zeus.leader_node zeus in
        Zeus.crash_leader zeus;
        Engine.run_for engine 10.0;
        Alcotest.(check bool) "new leader" true (Zeus.leader_node zeus <> old_leader);
        Zeus.write zeus ~path:"cfg/l" ~data:"after";
        Engine.run_for engine 30.0;
        Alcotest.(check (option string)) "new write delivered" (Some "after")
          (Zeus.proxy_get proxy "cfg/l");
        Alcotest.(check bool) "committed zxid advanced" true
          (Zeus.last_committed_zxid zeus >= 2));
    Alcotest.test_case "writes queued while leader down are applied after election" `Quick
      (fun () ->
        let engine, _, zeus = setup () in
        Zeus.crash_leader zeus;
        Zeus.write zeus ~path:"cfg/q" ~data:"queued";
        Zeus.write_all zeus [ w "cfg/q2" "a"; w "cfg/q" "b" ];
        Engine.run_for engine 30.0;
        Alcotest.(check int) "all three committed" 3 (Zeus.last_committed_zxid zeus);
        Alcotest.(check (pair (option string) (option string))) "applied in order"
          (Some "b", Some "a")
          (Zeus.committed_value zeus "cfg/q", Zeus.committed_value zeus "cfg/q2"));
    Alcotest.test_case "proxy crash: application reads on-disk cache" `Quick (fun () ->
        let engine, _, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 8 in
        Zeus.subscribe proxy ~path:"cfg/d" (fun ~zxid:_ _ -> ());
        Zeus.write zeus ~path:"cfg/d" ~data:"cached";
        Engine.run_for engine 10.0;
        Zeus.crash_proxy proxy;
        (* Everything else can be down too; the on-disk cache still serves. *)
        Alcotest.(check (option string)) "disk cache read" (Some "cached")
          (Zeus.proxy_get proxy "cfg/d"));
    Alcotest.test_case "proxy restart resubscribes and refreshes" `Quick (fun () ->
        let engine, _, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 9 in
        Zeus.subscribe proxy ~path:"cfg/r" (fun ~zxid:_ _ -> ());
        Zeus.write zeus ~path:"cfg/r" ~data:"v1";
        Engine.run_for engine 10.0;
        Zeus.crash_proxy proxy;
        Zeus.write zeus ~path:"cfg/r" ~data:"v2";
        Engine.run_for engine 10.0;
        (* Crashed proxy missed v2; stale value from disk. *)
        Alcotest.(check (option string)) "stale" (Some "v1") (Zeus.proxy_get proxy "cfg/r");
        Zeus.restart_proxy proxy;
        Engine.run_for engine 10.0;
        Alcotest.(check (option string)) "fresh after restart" (Some "v2")
          (Zeus.proxy_get proxy "cfg/r"));
    Alcotest.test_case "restarts keep one health loop per proxy" `Quick (fun () ->
        let engine, _, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 9 in
        (* Failover is driven by node crashes, not by a per-proxy
           timer: a quiet proxy schedules nothing, before or after
           any number of restarts. *)
        Engine.run_for engine 10.5;
        let window () =
          let before = Engine.events_processed engine in
          Engine.run_for engine 100.0;
          Engine.events_processed engine - before
        in
        Alcotest.(check int) "quiet at the start" 0 (window ());
        Zeus.crash_proxy proxy;
        Engine.run_for engine 0.25;
        Zeus.restart_proxy proxy;
        Engine.run_for engine 0.5;
        Alcotest.(check int) "quiet after a quick crash and restart" 0 (window ());
        Zeus.restart_proxy proxy;
        Engine.run_for engine 0.5;
        Alcotest.(check int) "quiet after restarting a live proxy" 0 (window ()));
    Alcotest.test_case "leader crashed outside Zeus is replaced" `Quick (fun () ->
        let engine, topo, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 6 in
        Zeus.subscribe proxy ~path:"cfg/o" (fun ~zxid:_ _ -> ());
        let old_leader = Zeus.leader_node zeus in
        Topology.crash topo old_leader;
        Engine.run_for engine 10.0;
        Alcotest.(check bool) "new leader" true (Zeus.leader_node zeus <> old_leader);
        Zeus.write zeus ~path:"cfg/o" ~data:"after";
        Engine.run_for engine 30.0;
        Alcotest.(check (option string)) "write delivered" (Some "after")
          (Zeus.proxy_get proxy "cfg/o"));
    Alcotest.test_case "observer restarted outside Zeus catches up" `Quick (fun () ->
        let engine, topo, zeus = setup () in
        (* Observer 0 of a cluster runs on the cluster's first node. *)
        let node = Topology.cluster_base topo ~region:1 ~cluster:1 in
        Zeus.crash_observer zeus ~region:1 ~cluster:1 0;
        for i = 1 to 8 do
          Zeus.write zeus ~path:("cfg/o" ^ string_of_int i) ~data:"d"
        done;
        Engine.run_for engine 10.0;
        Alcotest.(check int) "behind" 0 (Zeus.observer_last_zxid zeus ~region:1 ~cluster:1 0);
        Topology.restart topo node;
        Engine.run_for engine 30.0;
        Alcotest.(check int) "caught up without a write" 8
          (Zeus.observer_last_zxid zeus ~region:1 ~cluster:1 0));
  ]

let snapshot_tests =
  [
    Alcotest.test_case "far-behind observer catches up from a snapshot" `Quick (fun () ->
        let params = { Zeus.default_params with Zeus.snapshot_threshold = 50 } in
        let engine, _, zeus = setup ~params () in
        Zeus.crash_observer zeus ~region:1 ~cluster:1 0;
        (* 40 paths written 5 times each: 200 log entries, 40 live values. *)
        for round = 1 to 5 do
          for p = 0 to 39 do
            Zeus.write zeus ~path:(Printf.sprintf "snap/%02d" p)
              ~data:(Printf.sprintf "v%d" round)
          done;
          Engine.run_for engine 2.0
        done;
        Engine.run_for engine 10.0;
        Zeus.restart_observer zeus ~region:1 ~cluster:1 0;
        Engine.run_for engine 30.0;
        (* The observer's zxid jumps straight to the committed head. *)
        Alcotest.(check int) "caught up" 200
          (Zeus.observer_last_zxid zeus ~region:1 ~cluster:1 0));
    Alcotest.test_case "proxy on the snapshotted observer sees latest values" `Quick
      (fun () ->
        let params = { Zeus.default_params with Zeus.snapshot_threshold = 20 } in
        let engine, _, zeus = setup ~params () in
        (* Node 60+ lives in region 1 cluster 1 (2x2x20 topology). *)
        let proxy = Zeus.proxy_on zeus 65 in
        Zeus.subscribe proxy ~path:"snap/hot" (fun ~zxid:_ _ -> ());
        Engine.run_for engine 5.0;
        Zeus.crash_observer zeus ~region:1 ~cluster:1 0;
        Zeus.crash_observer zeus ~region:1 ~cluster:1 1;
        for i = 1 to 60 do
          Zeus.write zeus ~path:"snap/hot" ~data:(Printf.sprintf "v%d" i);
          if i mod 10 = 0 then Engine.run_for engine 1.0
        done;
        Engine.run_for engine 10.0;
        Zeus.restart_observer zeus ~region:1 ~cluster:1 0;
        Zeus.restart_observer zeus ~region:1 ~cluster:1 1;
        Engine.run_for engine 60.0;
        Alcotest.(check (option string)) "latest value" (Some "v60")
          (Zeus.proxy_get proxy "snap/hot"));
  ]

(* Property: under random write bursts and observer crash/restart, every
   proxy sees strictly increasing zxids per path and ends consistent.
   [bare] sends the crashes and restarts through bare [Topology] calls
   on the observer's node instead of the Zeus API; Zeus must react the
   same way. *)
let chaos_property =
  QCheck2.Test.make ~name:"in-order delivery under observer chaos" ~count:25
    QCheck2.Gen.(triple (int_range 0 1000000) (int_range 5 25) bool)
    (fun (seed, nwrites, bare) ->
      let engine, topo, zeus = setup ~seed:(Int64.of_int seed) () in
      let crash, restart =
        (* Observer 0 of region 0, cluster 0 runs on node 0. *)
        if bare then (fun () -> Topology.crash topo 0), fun () -> Topology.restart topo 0
        else
          ( (fun () -> Zeus.crash_observer zeus ~region:0 ~cluster:0 0),
            fun () -> Zeus.restart_observer zeus ~region:0 ~cluster:0 0 )
      in
      let proxy = Zeus.proxy_on zeus 15 in
      Zeus.subscribe proxy ~path:"p" (fun ~zxid:_ _ -> ());
      for i = 1 to nwrites do
        Zeus.write zeus ~path:"p" ~data:("v" ^ string_of_int i);
        if i mod 4 = 0 then crash ();
        if i mod 4 = 2 then restart ();
        Engine.run_for engine 0.3
      done;
      Engine.run_for engine 60.0;
      let zxids = List.map snd (Zeus.delivery_log proxy) in
      let monotone = List.sort_uniq Int.compare zxids = zxids in
      let consistent =
        Zeus.proxy_get proxy "p" = Some ("v" ^ string_of_int nwrites)
      in
      monotone && consistent)

(* --- distribution-plane performance ---------------------------------- *)

let dist_tests =
  [
    Alcotest.test_case "identical-byte rewrite: no fetch, no callback" `Quick (fun () ->
        let engine, _, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 5 in
        let calls = ref 0 in
        Zeus.subscribe proxy ~path:"dd/p" (fun ~zxid:_ _ -> incr calls);
        Zeus.write zeus ~path:"dd/p" ~data:"v1";
        Engine.run_for engine 10.0;
        Alcotest.(check int) "first delivery" 1 !calls;
        let s0 = Zeus.stats zeus in
        Zeus.write zeus ~path:"dd/p" ~data:"v1";
        Engine.run_for engine 10.0;
        let s1 = Zeus.stats zeus in
        Alcotest.(check int) "fanned out digest-only" 1
          (s1.Zeus.payloads_deduped - s0.Zeus.payloads_deduped);
        Alcotest.(check int) "no fetch round trip" 0 (s1.Zeus.fetches - s0.Zeus.fetches);
        Alcotest.(check bool) "notification acked from matching cache bytes" true
          (s1.Zeus.fetches_skipped > s0.Zeus.fetches_skipped);
        Alcotest.(check int) "no new callback" 1 !calls;
        Alcotest.(check (option int)) "version still bumped" (Some 2)
          (Zeus.proxy_cached_zxid proxy "dd/p"));
    Alcotest.test_case "one window of writes: one batch, one notification" `Quick
      (fun () ->
        let engine, _, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 5 in
        for i = 0 to 9 do
          Zeus.subscribe proxy ~path:(Printf.sprintf "b/%d" i) (fun ~zxid:_ _ -> ())
        done;
        Engine.run_for engine 5.0;
        let s0 = Zeus.stats zeus in
        for i = 0 to 9 do
          Zeus.write zeus ~path:(Printf.sprintf "b/%d" i) ~data:(Printf.sprintf "v%d" i)
        done;
        Engine.run_for engine 10.0;
        let s1 = Zeus.stats zeus in
        Alcotest.(check int) "one batch" 1 (s1.Zeus.leader_batches - s0.Zeus.leader_batches);
        Alcotest.(check int) "leader sent one message per region" 2
          (s1.Zeus.leader_msgs - s0.Zeus.leader_msgs);
        Alcotest.(check int) "ten notification entries" 10
          (s1.Zeus.notify_entries - s0.Zeus.notify_entries);
        Alcotest.(check int) "in a single message" 1
          (s1.Zeus.notify_msgs - s0.Zeus.notify_msgs);
        Alcotest.(check int) "one fetch round trip" 1 (s1.Zeus.fetches - s0.Zeus.fetches);
        Alcotest.(check int) "all ten delivered" 10 (Zeus.deliveries_total proxy));
    Alcotest.test_case "same-window writes to one path coalesce to the latest" `Quick
      (fun () ->
        let engine, _, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 5 in
        let got = ref [] in
        Zeus.subscribe proxy ~path:"c/p" (fun ~zxid:_ data -> got := data :: !got);
        Engine.run_for engine 1.0;
        for i = 1 to 5 do
          Zeus.write zeus ~path:"c/p" ~data:(Printf.sprintf "v%d" i)
        done;
        Engine.run_for engine 10.0;
        let s = Zeus.stats zeus in
        Alcotest.(check int) "four writes superseded in the window" 4 s.Zeus.writes_coalesced;
        Alcotest.(check (list string)) "single callback with the final value" [ "v5" ] !got;
        Alcotest.(check (option string)) "final value" (Some "v5")
          (Zeus.proxy_get proxy "c/p"));
    Alcotest.test_case "watchers fire once per effective change" `Quick (fun () ->
        let engine, _, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 5 in
        let got = ref [] in
        Zeus.subscribe proxy ~path:"e/p" (fun ~zxid:_ data -> got := data :: !got);
        List.iter
          (fun v ->
            Zeus.write zeus ~path:"e/p" ~data:v;
            Engine.run_for engine 2.0)
          [ "v1"; "v1"; "v2"; "v2"; "v3" ];
        Engine.run_for engine 10.0;
        Alcotest.(check (list string)) "effective changes only" [ "v1"; "v2"; "v3" ]
          (List.rev !got);
        let s = Zeus.stats zeus in
        Alcotest.(check int) "two digest-only fan-outs" 2 s.Zeus.payloads_deduped;
        Alcotest.(check int) "two skipped fetches" 2 s.Zeus.fetches_skipped;
        Alcotest.(check int) "three real fetches" 3 s.Zeus.fetches;
        Alcotest.(check (option int)) "zxid tracks the log head" (Some 5)
          (Zeus.proxy_cached_zxid proxy "e/p"));
    Alcotest.test_case "snapshot and replay catch-up converge to identical state" `Quick
      (fun () ->
        let params = { Zeus.default_params with Zeus.snapshot_threshold = 10 } in
        let engine, _, zeus = setup ~params () in
        Zeus.crash_observer zeus ~region:1 ~cluster:1 0;
        for round = 1 to 2 do
          for p = 0 to 14 do
            Zeus.write zeus ~path:(Printf.sprintf "s/%02d" p)
              ~data:(Printf.sprintf "r%d" round)
          done;
          Engine.run_for engine 2.0
        done;
        Zeus.crash_observer zeus ~region:1 ~cluster:1 1;
        for p = 0 to 4 do
          Zeus.write zeus ~path:(Printf.sprintf "s/%02d" p) ~data:"r3"
        done;
        Engine.run_for engine 5.0;
        Zeus.restart_observer zeus ~region:1 ~cluster:1 0 (* 35 behind -> snapshot *);
        Zeus.restart_observer zeus ~region:1 ~cluster:1 1 (* 5 behind -> replay *);
        Engine.run_for engine 30.0;
        let reference = Zeus.observer_data zeus ~region:0 ~cluster:0 0 in
        Alcotest.(check int) "reference is complete" 15 (List.length reference);
        Alcotest.(check bool) "snapshot observer converged" true
          (Zeus.observer_data zeus ~region:1 ~cluster:1 0 = reference);
        Alcotest.(check bool) "replay observer converged" true
          (Zeus.observer_data zeus ~region:1 ~cluster:1 1 = reference);
        let s = Zeus.stats zeus in
        Alcotest.(check bool) "a snapshot catch-up happened" true (s.Zeus.snapshots >= 1);
        Alcotest.(check bool) "a replay catch-up happened" true (s.Zeus.replays >= 1));
    Alcotest.test_case "delivery log is bounded but counts everything" `Quick (fun () ->
        let params = { Zeus.default_params with Zeus.delivery_log_cap = 8 } in
        let engine, _, zeus = setup ~params () in
        let proxy = Zeus.proxy_on zeus 5 in
        Zeus.subscribe proxy ~path:"r/p" (fun ~zxid:_ _ -> ());
        for i = 1 to 30 do
          Zeus.write zeus ~path:"r/p" ~data:(Printf.sprintf "v%d" i);
          Engine.run_for engine 1.0
        done;
        Engine.run_for engine 10.0;
        let log = Zeus.delivery_log proxy in
        Alcotest.(check int) "log capped" 8 (List.length log);
        Alcotest.(check bool) "keeps the most recent" true
          (List.exists (fun (_, zxid) -> zxid = 30) log);
        Alcotest.(check int) "every delivery counted" 30 (Zeus.deliveries_total proxy);
        let zxids = List.map snd log in
        Alcotest.(check bool) "still ordered" true (List.sort Int.compare zxids = zxids));
  ]

(* Property: the batched/deduped/relayed protocol is observably
   equivalent to the legacy one-message-per-write protocol.  For the
   same write schedule under both parameter sets: every callback sees a
   really-written value, per path the observed values are a subsequence
   of the written ones (dedup and coalescing may drop non-effective or
   superseded intermediates, never reorder or invent), zxids are
   strictly increasing, the final cached value matches the committed
   value, both runs agree on it — and the optimized leader never sends
   more bytes than the legacy one. *)
let equivalence_property =
  let rec is_subseq xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _, [] -> false
    | x :: xs', y :: ys' -> if x = y then is_subseq xs' ys' else is_subseq xs ys'
  in
  let gen =
    QCheck2.Gen.(
      pair (int_range 0 1000000)
        (list_size (int_range 4 18)
           (triple (int_range 0 2) (int_range 0 3) (int_range 0 2))))
  in
  QCheck2.Test.make ~name:"batched+deduped delivery equivalent to legacy" ~count:30 gen
    (fun (seed, schedule) ->
      let paths = [| "eq/a"; "eq/b"; "eq/c" |] in
      let written = Array.make 3 [] in
      List.iter (fun (p, v, _) -> written.(p) <- Printf.sprintf "v%d" v :: written.(p))
        schedule;
      let written = Array.map List.rev written in
      let run params =
        let engine, _, zeus = setup ~seed:(Int64.of_int seed) ~params () in
        let proxy = Zeus.proxy_on zeus 15 in
        let calls = Array.make 3 [] in
        Array.iteri
          (fun i path ->
            Zeus.subscribe proxy ~path (fun ~zxid data ->
                calls.(i) <- (zxid, data) :: calls.(i)))
          paths;
        Engine.run_for engine 1.0;
        List.iter
          (fun (p, v, gap) ->
            Zeus.write zeus ~path:paths.(p) ~data:(Printf.sprintf "v%d" v);
            if gap = 1 then Engine.run_for engine 0.2
            else if gap = 2 then Engine.run_for engine 2.0)
          schedule;
        Engine.run_for engine 60.0;
        let finals = Array.map (fun path -> Zeus.committed_value zeus path) paths in
        let ok = ref true in
        Array.iteri
          (fun i path ->
            let seen = List.rev calls.(i) in
            let zxids = List.map fst seen in
            if List.sort_uniq Int.compare zxids <> zxids then ok := false;
            if not (is_subseq (List.map snd seen) written.(i)) then ok := false;
            if Zeus.proxy_get proxy path <> finals.(i) then ok := false)
          paths;
        let egress = Net.egress_bytes (Zeus.net_of zeus) (Zeus.leader_node zeus) in
        (!ok, finals, egress)
      in
      let leg_ok, leg_finals, leg_egress = run Zeus.legacy_params in
      let opt_ok, opt_finals, opt_egress = run Zeus.default_params in
      leg_ok && opt_ok && leg_finals = opt_finals && opt_egress <= leg_egress)

(* --- batched writes ---------------------------------------------------- *)

(* Messages and bytes of one quorum round: a batch window far longer
   than the run keeps fan-out from starting. *)
let quorum_round act =
  let params = { Zeus.default_params with Zeus.batch_window = 100.0 } in
  let engine, _, zeus = setup ~params () in
  let net = Zeus.net_of zeus in
  act zeus;
  Engine.run_for engine 5.0;
  Net.messages_sent net, Net.bytes_sent net, Zeus.last_committed_zxid zeus

let batch_tests =
  [
    Alcotest.test_case "a one-write write_all is exactly write" `Quick (fun () ->
        (* 4 proposals of msg_overhead + |data| and 4 acks of msg_overhead. *)
        let expected = (8, (4 * (128 + 2)) + (4 * 128), 1) in
        let pinned = Alcotest.(triple int int int) in
        Alcotest.check pinned "write" expected
          (quorum_round (fun zeus -> Zeus.write zeus ~path:"cfg/a" ~data:"v1"));
        Alcotest.check pinned "write_all [w]" expected
          (quorum_round (fun zeus -> Zeus.write_all zeus [ w "cfg/a" "v1" ]));
        (* The whole run, fan-out and delivery included, draws the same
           jitter and sends the same messages. *)
        let run act =
          let engine, _, zeus = setup () in
          let proxy = Zeus.proxy_on zeus 45 in
          let got = ref [] in
          Zeus.subscribe proxy ~path:"cfg/a" (fun ~zxid data ->
              got := (zxid, data, Engine.now engine) :: !got);
          Engine.run_for engine 1.0;
          act zeus;
          Engine.run_for engine 10.0;
          let net = Zeus.net_of zeus in
          (Net.messages_sent net, Net.bytes_sent net, Engine.events_processed engine), !got
        in
        let single = run (fun zeus -> Zeus.write zeus ~path:"cfg/a" ~data:"v1") in
        let batched = run (fun zeus -> Zeus.write_all zeus [ w "cfg/a" "v1" ]) in
        Alcotest.(check bool) "same messages, bytes, events and delivery times" true
          (single = batched));
    Alcotest.test_case "n writes: one proposal and one ack per follower" `Quick (fun () ->
        let writes = [ w "cfg/a" "v1"; w "cfg/b" "v2"; w "cfg/a" "v3" ] in
        Alcotest.(check (triple int int int)) "one quorum round"
          (8, (4 * (128 + 6 + (2 * 16))) + (4 * 128), 3)
          (quorum_round (fun zeus -> Zeus.write_all zeus writes));
        let msgs, _, committed =
          quorum_round (fun zeus ->
              List.iter (fun { Zeus.path; data; _ } -> Zeus.write zeus ~path ~data) writes)
        in
        Alcotest.(check (pair int int)) "three rounds one write at a time" (24, 3)
          (msgs, committed);
        Alcotest.(check (triple int int int)) "no writes, no round" (0, 0, 0)
          (quorum_round (fun zeus -> Zeus.write_all zeus [])));
  ]

let proxy_nodes = [ 5; 25; 45; 65 ]
let batch_paths = [| "bt/a"; "bt/b"; "bt/c"; "bt/d" |]

let subscribed_proxies zeus =
  List.map
    (fun node ->
      let proxy = Zeus.proxy_on zeus node in
      Array.iter (fun path -> Zeus.subscribe proxy ~path (fun ~zxid:_ _ -> ())) batch_paths;
      proxy)
    proxy_nodes

(* Property: cutting a write sequence into [write_all] batches at
   random boundaries -- repeated paths and byte-identical rewrites
   inside one batch included -- leaves every proxy holding the same
   bytes as issuing the same writes one [write] at a time, and each
   path's deliveries stay zxid-monotone. *)
let batch_equivalence_property =
  let gen =
    QCheck2.Gen.(
      pair (int_range 0 1000000)
        (list_size (int_range 1 8)
           (pair (list_size (int_range 1 6) (pair (int_range 0 3) (int_range 0 2)))
              (int_range 0 2))))
  in
  QCheck2.Test.make ~name:"write_all batches deliver what single writes deliver" ~count:30
    gen (fun (seed, batches) ->
      let run batched =
        let engine, _, zeus = setup ~seed:(Int64.of_int seed) () in
        let proxies = subscribed_proxies zeus in
        Engine.run_for engine 1.0;
        List.iter
          (fun (batch, gap) ->
            let writes =
              List.map (fun (p, v) -> w batch_paths.(p) (Printf.sprintf "v%d" v)) batch
            in
            if batched then Zeus.write_all zeus writes
            else List.iter (fun { Zeus.path; data; _ } -> Zeus.write zeus ~path ~data) writes;
            if gap = 1 then Engine.run_for engine 0.02
            else if gap = 2 then Engine.run_for engine 2.0)
          batches;
        Engine.run_for engine 60.0;
        let monotone proxy =
          Array.for_all
            (fun path ->
              let zxids =
                List.filter_map
                  (fun (p, zxid) -> if p = path then Some zxid else None)
                  (Zeus.delivery_log proxy)
              in
              List.sort_uniq Int.compare zxids = zxids)
            batch_paths
        in
        let held proxy = Array.map (Zeus.proxy_get proxy) batch_paths in
        List.for_all monotone proxies, List.map held proxies
      in
      let single_ok, single_held = run false in
      let batched_ok, batched_held = run true in
      single_ok && batched_ok && single_held = batched_held)

(* Property: the leader crashes right after proposing a batch.  Each
   follower is down when the proposal goes out (restarted 0.5 s later),
   up throughout, or cut: it crashes at a random instant while the
   proposal may be in flight and restarts 0.5 s later.  At most one
   follower that was up throughout is lost before the election.
   Whatever the timing, the batch commits all or none, and every proxy
   converges to the committed values.  Without cut followers the
   outcome is known: the batch commits exactly when a follower that
   persisted it survives to the election. *)
let batch_atomicity_property =
  let gen =
    QCheck2.Gen.(
      triple (int_range 0 1000000)
        (list_size (return 4) (pair (int_range 0 2) (float_range 0.0 0.1)))
        (int_range (-1) 3))
  in
  QCheck2.Test.make ~name:"a leader crash commits a batch all or none" ~count:60 gen
    (fun (seed, fates, lost) ->
      let engine, topo, zeus = setup ~seed:(Int64.of_int seed) () in
      let proxies = subscribed_proxies zeus in
      Zeus.write zeus ~path:"bt/a" ~data:"before";
      Engine.run_for engine 10.0;
      let followers =
        Array.to_list (Zeus.member_nodes zeus)
        |> List.filter (fun node -> node <> Zeus.leader_node zeus)
        |> List.combine fates
      in
      let down_at_send = List.filter (fun ((fate, _), _) -> fate = 0) followers in
      let up = List.filter (fun ((fate, _), _) -> fate = 1) followers in
      let cut = List.filter (fun ((fate, _), _) -> fate = 2) followers in
      let lost_nodes = List.filteri (fun i _ -> i = lost) (List.map snd up) in
      List.iter (fun (_, node) -> Topology.crash topo node) down_at_send;
      Zeus.write_all zeus
        [ w "bt/a" "new-a"; w "bt/b" "new-b"; w "bt/c" "new-c"; w "bt/b" "new-b2" ];
      Zeus.crash_leader zeus;
      List.iter
        (fun ((_, at), node) ->
          ignore (Engine.schedule engine ~delay:at (fun () -> Topology.crash topo node)))
        cut;
      Engine.run_for engine 0.5;
      List.iter (fun (_, node) -> Topology.restart topo node) (down_at_send @ cut);
      List.iter (Topology.crash topo) lost_nodes;
      Engine.run_for engine 60.0;
      let committed = Array.map (Zeus.committed_value zeus) batch_paths in
      let all = [| Some "new-a"; Some "new-b2"; Some "new-c"; None |] in
      let none = [| Some "before"; None; None; None |] in
      let whole =
        (committed = all && Zeus.last_committed_zxid zeus = 5)
        || (committed = none && Zeus.last_committed_zxid zeus = 1)
      in
      let survives = List.exists (fun (_, n) -> not (List.memq n lost_nodes)) up in
      let as_known = cut <> [] || committed = if survives then all else none in
      whole && as_known
      && List.for_all
           (fun proxy -> Array.map (Zeus.proxy_get proxy) batch_paths = committed)
           proxies)

(* --- pull model ------------------------------------------------------ *)

let pull_tests =
  [
    Alcotest.test_case "pull proxy converges within poll interval" `Quick (fun () ->
        let engine, _, zeus = setup () in
        let pull = Pull.create zeus ~node:11 ~poll_interval:5.0 in
        Pull.subscribe pull ~path:"cfg/p" (fun ~zxid:_ _ -> ());
        Zeus.write zeus ~path:"cfg/p" ~data:"v1";
        Engine.run_for engine 12.0;
        Alcotest.(check (option string)) "pulled" (Some "v1") (Pull.get pull "cfg/p");
        Pull.stop pull);
    Alcotest.test_case "idle polls counted as pure overhead" `Quick (fun () ->
        let engine, _, zeus = setup () in
        let pull = Pull.create zeus ~node:12 ~poll_interval:2.0 in
        Pull.subscribe pull ~path:"cfg/idle" (fun ~zxid:_ _ -> ());
        Zeus.write zeus ~path:"cfg/idle" ~data:"v";
        Engine.run_for engine 60.0;
        Alcotest.(check bool) "many polls" true (Pull.polls pull > 20);
        Alcotest.(check bool) "mostly empty" true
          (Pull.empty_polls pull > Pull.polls pull - 5);
        Pull.stop pull);
    Alcotest.test_case "push delivers faster than pull" `Quick (fun () ->
        let engine, _, zeus = setup () in
        let proxy = Zeus.proxy_on zeus 13 in
        let push_time = ref nan and pull_time = ref nan in
        Zeus.subscribe proxy ~path:"race" (fun ~zxid:_ _ ->
            if Float.is_nan !push_time then push_time := Engine.now engine);
        let pull = Pull.create zeus ~node:14 ~poll_interval:30.0 in
        Pull.subscribe pull ~path:"race" (fun ~zxid:_ _ ->
            if Float.is_nan !pull_time then pull_time := Engine.now engine);
        Engine.run_for engine 1.0;
        Zeus.write zeus ~path:"race" ~data:"go";
        Engine.run_for engine 120.0;
        Alcotest.(check bool) "push sub-second-ish" true (!push_time < 5.0);
        Alcotest.(check bool) "pull waits for poll" true (!pull_time > !push_time);
        Pull.stop pull);
  ]

let () =
  Alcotest.run "cm_zeus"
    [
      "basic", basic_tests;
      "failures", failure_tests;
      "pull", pull_tests;
      "snapshot", snapshot_tests;
      "distribution", dist_tests;
      "batch", batch_tests;
      ( "properties",
        [
          QCheck_alcotest.to_alcotest chaos_property;
          QCheck_alcotest.to_alcotest equivalence_property;
          QCheck_alcotest.to_alcotest batch_equivalence_property;
          QCheck_alcotest.to_alcotest batch_atomicity_property;
        ] );
    ]
