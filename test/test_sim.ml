module Rng = Cm_sim.Rng
module Heap = Cm_sim.Heap
module Engine = Cm_sim.Engine
module Topology = Cm_sim.Topology
module Net = Cm_sim.Net
module Metrics = Cm_sim.Metrics
module Cohort = Cm_sim.Cohort
module Zeus = Cm_zeus.Service

(* --- rng ------------------------------------------------------------- *)

let rng_tests =
  [
    Alcotest.test_case "deterministic from seed" `Quick (fun () ->
        let a = Rng.create 5L and b = Rng.create 5L in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
        done);
    Alcotest.test_case "int bounds" `Quick (fun () ->
        let rng = Rng.create 1L in
        for _ = 1 to 10000 do
          let v = Rng.int rng 7 in
          Alcotest.(check bool) "in [0,7)" true (v >= 0 && v < 7)
        done);
    Alcotest.test_case "int_in bounds" `Quick (fun () ->
        let rng = Rng.create 2L in
        for _ = 1 to 1000 do
          let v = Rng.int_in rng (-3) 3 in
          Alcotest.(check bool) "in [-3,3]" true (v >= -3 && v <= 3)
        done);
    Alcotest.test_case "split independence" `Quick (fun () ->
        let a = Rng.create 5L in
        let b = Rng.split a in
        Alcotest.(check bool) "different streams" true (Rng.bits64 a <> Rng.bits64 b));
    Alcotest.test_case "exponential mean" `Quick (fun () ->
        let rng = Rng.create 3L in
        let n = 20000 in
        let sum = ref 0.0 in
        for _ = 1 to n do
          sum := !sum +. Rng.exponential rng 10.0
        done;
        let mean = !sum /. float_of_int n in
        Alcotest.(check bool) "mean ~ 10" true (mean > 9.0 && mean < 11.0));
    Alcotest.test_case "normal moments" `Quick (fun () ->
        let rng = Rng.create 4L in
        let n = 20000 in
        let sum = ref 0.0 and sq = ref 0.0 in
        for _ = 1 to n do
          let v = Rng.normal rng ~mu:5.0 ~sigma:2.0 in
          sum := !sum +. v;
          sq := !sq +. (v *. v)
        done;
        let mean = !sum /. float_of_int n in
        let var = (!sq /. float_of_int n) -. (mean *. mean) in
        Alcotest.(check bool) "mean ~ 5" true (Float.abs (mean -. 5.0) < 0.1);
        Alcotest.(check bool) "var ~ 4" true (Float.abs (var -. 4.0) < 0.3));
    Alcotest.test_case "bernoulli rate" `Quick (fun () ->
        let rng = Rng.create 6L in
        let hits = ref 0 in
        for _ = 1 to 20000 do
          if Rng.bernoulli rng 0.3 then incr hits
        done;
        let rate = float_of_int !hits /. 20000.0 in
        Alcotest.(check bool) "rate ~ 0.3" true (Float.abs (rate -. 0.3) < 0.02));
    Alcotest.test_case "zipf in range and skewed" `Quick (fun () ->
        let rng = Rng.create 7L in
        let dist = Rng.Zipf.make ~n:100 ~s:1.1 in
        let ones = ref 0 in
        for _ = 1 to 10000 do
          let r = Rng.Zipf.draw rng dist in
          Alcotest.(check bool) "in [1,100]" true (r >= 1 && r <= 100);
          if r = 1 then incr ones
        done;
        Alcotest.(check bool) "rank 1 dominates" true (!ones > 1000));
    Alcotest.test_case "hash_to_unit deterministic and spread" `Quick (fun () ->
        Alcotest.(check (float 0.0)) "stable" (Rng.hash_to_unit "user42")
          (Rng.hash_to_unit "user42");
        let below = ref 0 in
        for i = 1 to 10000 do
          let v = Rng.hash_to_unit (Printf.sprintf "user%d" i) in
          Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0);
          if v < 0.5 then incr below
        done;
        Alcotest.(check bool) "roughly uniform" true (!below > 4700 && !below < 5300));
    Alcotest.test_case "binomial bounds and moments" `Quick (fun () ->
        let rng = Rng.create 9L in
        Alcotest.(check int) "n=0" 0 (Rng.binomial rng ~n:0 ~p:0.5);
        Alcotest.(check int) "p=0" 0 (Rng.binomial rng ~n:100 ~p:0.0);
        Alcotest.(check int) "p=1" 100 (Rng.binomial rng ~n:100 ~p:1.0);
        (* Exact branch. *)
        let sum = ref 0 in
        for _ = 1 to 20000 do
          let k = Rng.binomial rng ~n:40 ~p:0.3 in
          Alcotest.(check bool) "in range" true (k >= 0 && k <= 40);
          sum := !sum + k
        done;
        let mean = float_of_int !sum /. 20000.0 in
        Alcotest.(check bool) "mean ~ 12" true (Float.abs (mean -. 12.0) < 0.2);
        (* Normal-approximation branch (cohort-scale n). *)
        let sum = ref 0 in
        for _ = 1 to 20000 do
          let k = Rng.binomial rng ~n:1000 ~p:0.3 in
          Alcotest.(check bool) "in range" true (k >= 0 && k <= 1000);
          sum := !sum + k
        done;
        let mean = float_of_int !sum /. 20000.0 in
        Alcotest.(check bool) "mean ~ 300" true (Float.abs (mean -. 300.0) < 2.0));
    Alcotest.test_case "shuffle permutes" `Quick (fun () ->
        let rng = Rng.create 8L in
        let arr = Array.init 50 (fun i -> i) in
        Rng.shuffle rng arr;
        let sorted = Array.copy arr in
        Array.sort Int.compare sorted;
        Alcotest.(check bool) "same elements" true (sorted = Array.init 50 (fun i -> i)));
  ]

(* --- heap ------------------------------------------------------------ *)

let heap_property =
  QCheck2.Test.make ~name:"heap pops in (time, seq) order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 200) (pair (float_range 0.0 100.0) nat))
    (fun entries ->
      let h = Heap.create () in
      List.iteri (fun seq (time, payload) -> Heap.push h ~time ~seq payload) entries;
      let rec drain prev =
        match Heap.pop h with
        | None -> true
        | Some (time, seq, _) -> (
            match prev with
            | Some (ptime, pseq) when time < ptime || (time = ptime && seq < pseq) -> false
            | Some _ | None -> drain (Some (time, seq)))
      in
      drain None)

let heap_tests =
  [
    Alcotest.test_case "empty heap" `Quick (fun () ->
        let h = Heap.create () in
        Alcotest.(check bool) "empty" true (Heap.is_empty h);
        Alcotest.(check bool) "pop none" true (Heap.pop h = None));
    Alcotest.test_case "fifo at same time" `Quick (fun () ->
        let h = Heap.create () in
        Heap.push h ~time:1.0 ~seq:0 "a";
        Heap.push h ~time:1.0 ~seq:1 "b";
        Heap.push h ~time:1.0 ~seq:2 "c";
        let order =
          List.init 3 (fun _ ->
              match Heap.pop h with Some (_, _, x) -> x | None -> "?")
        in
        Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c" ] order);
    QCheck_alcotest.to_alcotest heap_property;
  ]

(* --- engine ---------------------------------------------------------- *)

let engine_tests =
  [
    Alcotest.test_case "events fire in time order" `Quick (fun () ->
        let engine = Engine.create () in
        let log = ref [] in
        ignore (Engine.schedule engine ~delay:3.0 (fun () -> log := 3 :: !log));
        ignore (Engine.schedule engine ~delay:1.0 (fun () -> log := 1 :: !log));
        ignore (Engine.schedule engine ~delay:2.0 (fun () -> log := 2 :: !log));
        Engine.run engine;
        Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
        Alcotest.(check (float 1e-9)) "clock" 3.0 (Engine.now engine));
    Alcotest.test_case "cancel" `Quick (fun () ->
        let engine = Engine.create () in
        let fired = ref false in
        let h = Engine.schedule engine ~delay:1.0 (fun () -> fired := true) in
        Engine.cancel engine h;
        Engine.run engine;
        Alcotest.(check bool) "not fired" false !fired;
        Alcotest.(check int) "no pending" 0 (Engine.pending engine));
    Alcotest.test_case "run until leaves future events" `Quick (fun () ->
        let engine = Engine.create () in
        let fired = ref 0 in
        ignore (Engine.schedule engine ~delay:1.0 (fun () -> incr fired));
        ignore (Engine.schedule engine ~delay:10.0 (fun () -> incr fired));
        Engine.run ~until:5.0 engine;
        Alcotest.(check int) "one fired" 1 !fired;
        Alcotest.(check int) "one pending" 1 (Engine.pending engine));
    Alcotest.test_case "run_for advances clock" `Quick (fun () ->
        let engine = Engine.create () in
        Engine.run_for engine 42.0;
        Alcotest.(check (float 1e-9)) "clock" 42.0 (Engine.now engine));
    Alcotest.test_case "nested scheduling" `Quick (fun () ->
        let engine = Engine.create () in
        let times = ref [] in
        ignore
          (Engine.schedule engine ~delay:1.0 (fun () ->
               times := Engine.now engine :: !times;
               ignore
                 (Engine.schedule engine ~delay:2.0 (fun () ->
                      times := Engine.now engine :: !times))));
        Engine.run engine;
        Alcotest.(check (list (float 1e-9))) "times" [ 1.0; 3.0 ] (List.rev !times));
    Alcotest.test_case "same-time events fire in scheduling order" `Quick (fun () ->
        let engine = Engine.create () in
        let log = ref [] in
        for i = 0 to 9 do
          ignore (Engine.schedule engine ~delay:1.0 (fun () -> log := i :: !log))
        done;
        Engine.run engine;
        Alcotest.(check (list int)) "order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !log));
    Alcotest.test_case "cancel after fire is a no-op" `Quick (fun () ->
        let engine = Engine.create () in
        let h = Engine.schedule engine ~delay:1.0 (fun () -> ()) in
        Engine.run engine;
        Alcotest.(check int) "drained" 0 (Engine.pending engine);
        (* Used to decrement [live] below the true count and leak a
           tombstone; now a per-handle no-op. *)
        Engine.cancel engine h;
        Engine.cancel engine h;
        Alcotest.(check int) "still zero" 0 (Engine.pending engine);
        let fired = ref false in
        ignore (Engine.schedule engine ~delay:1.0 (fun () -> fired := true));
        Alcotest.(check int) "one pending" 1 (Engine.pending engine);
        Engine.run engine;
        Alcotest.(check bool) "later event unaffected" true !fired;
        Alcotest.(check int) "drained again" 0 (Engine.pending engine));
    Alcotest.test_case "repeated cancel counts once" `Quick (fun () ->
        let engine = Engine.create () in
        let h = Engine.schedule engine ~delay:1.0 (fun () -> ()) in
        ignore (Engine.schedule engine ~delay:2.0 (fun () -> ()));
        Engine.cancel engine h;
        Engine.cancel engine h;
        Alcotest.(check int) "one left" 1 (Engine.pending engine);
        Engine.run engine;
        Alcotest.(check int) "drained" 0 (Engine.pending engine));
    Alcotest.test_case "run_for with empty queue advances clock" `Quick (fun () ->
        let engine = Engine.create () in
        Engine.run_for engine 7.5;
        Alcotest.(check (float 1e-9)) "first" 7.5 (Engine.now engine);
        Engine.run_for engine 2.5;
        Alcotest.(check (float 1e-9)) "cumulative" 10.0 (Engine.now engine);
        (* Scheduling after the jump still lands relative to the new
           clock. *)
        let at = ref 0.0 in
        ignore (Engine.schedule engine ~delay:1.0 (fun () -> at := Engine.now engine));
        Engine.run engine;
        Alcotest.(check (float 1e-9)) "relative" 11.0 !at);
    Alcotest.test_case "same-time fifo across wheel slots and wrap" `Quick (fun () ->
        (* Fifty events share one instant; earlier traffic scheduled
           after them fires first, and the tie still fires in
           scheduling order. *)
        let engine = Engine.create () in
        let log = ref [] in
        for i = 0 to 49 do
          ignore (Engine.at engine ~time:10.0 (fun () -> log := i :: !log))
        done;
        for i = 0 to 19 do
          ignore (Engine.at engine ~time:(0.3 *. float_of_int i) (fun () -> ()))
        done;
        Engine.run engine;
        Alcotest.(check (list int)) "fifo preserved"
          (List.init 50 (fun i -> i))
          (List.rev !log);
        Alcotest.(check (float 1e-9)) "clock" 10.0 (Engine.now engine));
    Alcotest.test_case "run until far future event then resume" `Quick (fun () ->
        let engine = Engine.create () in
        let fired = ref false in
        ignore (Engine.at engine ~time:100.0 (fun () -> fired := true));
        Engine.run ~until:5.0 engine;
        Alcotest.(check bool) "not yet" false !fired;
        Alcotest.(check int) "still pending" 1 (Engine.pending engine);
        Engine.run engine;
        Alcotest.(check bool) "fired" true !fired;
        Alcotest.(check (float 1e-9)) "clock jumped" 100.0 (Engine.now engine));
    Alcotest.test_case "events_processed counts fires only" `Quick (fun () ->
        let engine = Engine.create () in
        let h = Engine.schedule engine ~delay:1.0 (fun () -> ()) in
        ignore (Engine.schedule engine ~delay:2.0 (fun () -> ()));
        Engine.cancel engine h;
        Engine.run engine;
        Alcotest.(check int) "one processed" 1 (Engine.events_processed engine));
    Alcotest.test_case "fired and cancelled events release their closures" `Quick
      (fun () ->
        (* Each event captures 1 MB; once fired or cancelled, neither
           its live handle nor the queue may keep that reachable. *)
        let engine = Engine.create () and captured = Weak.create 3 in
        let arm i delay =
          let bytes = Bytes.create (1 lsl 20) in
          Weak.set captured i (Some bytes);
          Engine.schedule engine ~delay (fun () -> ignore (Bytes.length bytes))
        in
        let handles = [ arm 0 1.0; arm 1 2.0; arm 2 100.0 ] in
        List.iter (Engine.cancel engine) (List.tl handles);
        Engine.run ~until:10.0 engine;
        Gc.full_major ();
        List.iteri
          (fun i what -> Alcotest.(check bool) what false (Weak.check captured i))
          [ "fired"; "cancelled, popped"; "cancelled, still queued" ];
        ignore (Sys.opaque_identity (engine, handles)));
  ]

(* Model-based check of the engine contract.  A program schedules
   events at absolute times or after delays, cancels any handle made
   so far (pending, fired or already cancelled) and runs up to a
   limit; a firing event runs its own delay-0 schedules and cancels.
   The reference keeps pending events in a list and always fires the
   (time, seq) minimum.  Both record the fired ids (creation order,
   i.e. seq) and (now, pending, processed) after every top-level act. *)
type act = At of float * act list | Sched of float * act list | Cancel of int | Run_until of float

let gen_program =
  let open QCheck2.Gen in
  let instant = map (fun i -> float_of_int i *. 0.5) (int_range 0 20) (* many ties *) in
  let delay = frequency [ 2, return 0.0; 3, instant; 1, return (-1.0) ] in
  let inner = frequency [ 3, map (fun d -> Sched (d, [])) delay; 1, map (fun k -> Cancel k) nat ] in
  let inners = list_size (int_range 0 3) inner in
  list_size (int_range 0 60)
    (frequency
       [
         3, map2 (fun t acts -> At (t, acts)) instant inners;
         3, map2 (fun d acts -> Sched (d, acts)) delay inners;
         2, map (fun k -> Cancel k) nat;
         1, map (fun l -> Run_until l) instant;
       ])

let interpret (add, cancel, run, observe) program =
  let made = ref 0 and fired = ref [] in
  let rec perform = function
    | At (time, acts) -> add `At time (event acts)
    | Sched (delay, acts) -> add `Delay delay (event acts)
    | Cancel k -> if !made > 0 then cancel (!made - 1 - (k mod !made))
    | Run_until limit -> run (Some limit)
  and event acts =
    let id = !made in
    incr made;
    (id, fun () -> fired := id :: !fired; List.iter perform acts)
  in
  let trace = List.map (fun act -> perform act; observe ()) program in
  run None;
  (List.rev !fired, trace @ [ observe () ])

let engine_scheduler () =
  let e = Engine.create () and handles = Hashtbl.create 64 in
  ( (fun kind x (id, f) ->
      Hashtbl.replace handles id
        (if kind = `At then Engine.at e ~time:x f else Engine.schedule e ~delay:x f)),
    (fun id -> Engine.cancel e (Hashtbl.find handles id)),
    (fun until -> Engine.run ?until e),
    fun () -> (Engine.now e, Engine.pending e, Engine.events_processed e) )

let model_scheduler () =
  let clock = ref 0.0 and queue = ref [] and processed = ref 0 in
  let rec run limit =
    match List.sort (fun (t, i, _) (u, j, _) -> compare (t, i) (u, j)) !queue with
    | (time, _, f) :: rest when time <= limit ->
        queue := rest;
        clock := time;
        incr processed;
        f ();
        run limit
    | _ -> ()
  in
  ( (fun kind x (id, f) ->
      let time = if kind = `At then x else !clock +. Float.max 0.0 x in
      queue := (Float.max time !clock, id, f) :: !queue),
    (fun id -> queue := List.filter (fun (_, i, _) -> i <> id) !queue),
    (fun until -> run (Option.value until ~default:infinity)),
    fun () -> (!clock, List.length !queue, !processed) )

let engine_order_property =
  QCheck2.Test.make ~name:"engine fires any schedule in (time, seq) order" ~count:100
    QCheck2.Gen.(list_size (int_range 0 300) (float_range 0.0 30.0))
    (fun times ->
      let fired, _ = interpret (engine_scheduler ()) (List.map (fun t -> At (t, [])) times) in
      fired = List.map snd (List.stable_sort compare (List.mapi (fun i t -> (t, i)) times)))

let engine_model_property =
  QCheck2.Test.make ~name:"engine matches a (time, seq) reference model" ~count:300 gen_program
    (fun program ->
      interpret (engine_scheduler ()) program = interpret (model_scheduler ()) program)

let engine_property_tests =
  List.map QCheck_alcotest.to_alcotest [ engine_order_property; engine_model_property ]

(* --- topology & net -------------------------------------------------- *)

let topo_tests =
  [
    Alcotest.test_case "counts" `Quick (fun () ->
        let t = Topology.create ~regions:3 ~clusters_per_region:4 ~nodes_per_cluster:10 in
        Alcotest.(check int) "nodes" 120 (Topology.node_count t);
        Alcotest.(check int) "regions" 3 (Topology.region_count t);
        Alcotest.(check int) "clusters" 12 (Topology.cluster_count t));
    Alcotest.test_case "placement" `Quick (fun () ->
        let t = Topology.create ~regions:2 ~clusters_per_region:2 ~nodes_per_cluster:5 in
        Alcotest.(check bool) "same cluster" true (Topology.same_cluster t 0 4);
        Alcotest.(check bool) "diff cluster same region" true
          (Topology.same_region t 0 5 && not (Topology.same_cluster t 0 5));
        Alcotest.(check bool) "diff region" false (Topology.same_region t 0 10);
        let region, cluster = Topology.cluster_of t 17 in
        Alcotest.(check (pair int int)) "cluster_of" (1, 1) (region, cluster));
    Alcotest.test_case "crash/restart" `Quick (fun () ->
        let t = Topology.create ~regions:1 ~clusters_per_region:1 ~nodes_per_cluster:4 in
        Topology.crash t 2;
        Alcotest.(check bool) "down" false (Topology.is_up t 2);
        Topology.restart t 2;
        Alcotest.(check bool) "up" true (Topology.is_up t 2));
    Alcotest.test_case "on_change listeners see every crash and restart" `Quick (fun () ->
        let t = Topology.create ~regions:1 ~clusters_per_region:1 ~nodes_per_cluster:4 in
        let seen = ref [] in
        let listen name =
          Topology.on_change t (fun id -> seen := (name, id, Topology.is_up t id) :: !seen)
        in
        listen "a";
        listen "b";
        Topology.crash t 2;
        Topology.restart t 2;
        Topology.restart t 1;
        Alcotest.(check (list (triple string int bool)))
          "in registration order, after the change"
          [ "a", 2, false; "b", 2, false; "a", 2, true; "b", 2, true; "a", 1, true; "b", 1, true ]
          (List.rev !seen));
    Alcotest.test_case "random_up_node avoids down nodes" `Quick (fun () ->
        let t = Topology.create ~regions:1 ~clusters_per_region:1 ~nodes_per_cluster:4 in
        Topology.crash t 0;
        Topology.crash t 1;
        Topology.crash t 2;
        let rng = Rng.create 11L in
        for _ = 1 to 50 do
          Alcotest.(check (option int)) "only node 3" (Some 3) (Topology.random_up_node rng t)
        done);
  ]

let net_tests =
  [
    Alcotest.test_case "latency classes ordered" `Quick (fun () ->
        let engine = Engine.create () in
        let topo = Topology.create ~regions:2 ~clusters_per_region:2 ~nodes_per_cluster:5 in
        let params = { Net.default_params with jitter = 0.0 } in
        let net = Net.create ~params engine topo in
        let t_cluster = Net.transfer_time net ~src:0 ~dst:1 ~bytes:0 in
        let t_region = Net.transfer_time net ~src:0 ~dst:5 ~bytes:0 in
        let t_world = Net.transfer_time net ~src:0 ~dst:10 ~bytes:0 in
        Alcotest.(check bool) "cluster < region" true (t_cluster < t_region);
        Alcotest.(check bool) "region < world" true (t_region < t_world));
    Alcotest.test_case "bandwidth term grows with size" `Quick (fun () ->
        let engine = Engine.create () in
        let topo = Topology.create ~regions:1 ~clusters_per_region:1 ~nodes_per_cluster:2 in
        let params = { Net.default_params with jitter = 0.0 } in
        let net = Net.create ~params engine topo in
        let small = Net.transfer_time net ~src:0 ~dst:1 ~bytes:1000 in
        let large = Net.transfer_time net ~src:0 ~dst:1 ~bytes:100_000_000 in
        Alcotest.(check bool) "large slower" true (large > small));
    Alcotest.test_case "delivery and accounting" `Quick (fun () ->
        let engine = Engine.create () in
        let topo = Topology.create ~regions:2 ~clusters_per_region:1 ~nodes_per_cluster:2 in
        let net = Net.create engine topo in
        let got = ref 0 in
        Net.send net ~src:0 ~dst:1 ~bytes:100 (fun () -> incr got);
        Net.send net ~src:0 ~dst:2 ~bytes:100 (fun () -> incr got);
        Engine.run engine;
        Alcotest.(check int) "both delivered" 2 !got;
        Alcotest.(check int) "messages" 2 (Net.messages_sent net);
        Alcotest.(check int) "bytes" 200 (Net.bytes_sent net);
        Alcotest.(check int) "cross region bytes" 100 (Net.cross_region_bytes net));
    Alcotest.test_case "down node receives nothing" `Quick (fun () ->
        let engine = Engine.create () in
        let topo = Topology.create ~regions:1 ~clusters_per_region:1 ~nodes_per_cluster:2 in
        let net = Net.create engine topo in
        Topology.crash topo 1;
        let got = ref 0 in
        Net.send_reliable net ~src:0 ~dst:1 ~bytes:10 (fun () -> incr got);
        Engine.run engine;
        Alcotest.(check int) "nothing" 0 !got);
    Alcotest.test_case "lossy drops roughly drop_prob" `Quick (fun () ->
        let engine = Engine.create () in
        let topo = Topology.create ~regions:1 ~clusters_per_region:1 ~nodes_per_cluster:2 in
        let params = Net.lossy Net.default_params ~drop_prob:0.5 in
        let net = Net.create ~params engine topo in
        let got = ref 0 in
        for _ = 1 to 1000 do
          Net.send net ~src:0 ~dst:1 ~bytes:10 (fun () -> incr got)
        done;
        Engine.run engine;
        Alcotest.(check bool) "about half" true (!got > 400 && !got < 600));
    Alcotest.test_case "copies scale accounting, deliver once" `Quick (fun () ->
        let engine = Engine.create () in
        let topo = Topology.create ~regions:2 ~clusters_per_region:1 ~nodes_per_cluster:2 in
        let net = Net.create engine topo in
        let got = ref 0 in
        Net.send ~copies:50 net ~src:0 ~dst:2 ~bytes:100 (fun () -> incr got);
        Engine.run engine;
        Alcotest.(check int) "one delivery event" 1 !got;
        Alcotest.(check int) "messages x50" 50 (Net.messages_sent net);
        Alcotest.(check int) "bytes x50" 5000 (Net.bytes_sent net);
        Alcotest.(check int) "cross region x50" 5000 (Net.cross_region_bytes net);
        Alcotest.(check int) "egress x50" 5000 (Net.egress_bytes net 0);
        Net.reset_counters net;
        Alcotest.(check int) "egress reset" 0 (Net.egress_bytes net 0));
  ]

(* --- metrics --------------------------------------------------------- *)

let metrics_tests =
  [
    Alcotest.test_case "histogram quantiles" `Quick (fun () ->
        let h = Metrics.Histogram.create () in
        for i = 1 to 100 do
          Metrics.Histogram.add h (float_of_int i)
        done;
        Alcotest.(check (float 1.0)) "p50" 50.5 (Metrics.Histogram.quantile h 0.5);
        Alcotest.(check (float 1.0)) "p95" 95.0 (Metrics.Histogram.quantile h 0.95);
        Alcotest.(check (float 1e-9)) "min" 1.0 (Metrics.Histogram.min h);
        Alcotest.(check (float 1e-9)) "max" 100.0 (Metrics.Histogram.max h);
        Alcotest.(check (float 1e-6)) "mean" 50.5 (Metrics.Histogram.mean h);
        Alcotest.(check (float 1e-6)) "cdf(50)" 0.5 (Metrics.Histogram.cdf_at h 50.0));
    Alcotest.test_case "histogram interleaved add/query" `Quick (fun () ->
        let h = Metrics.Histogram.create () in
        Metrics.Histogram.add h 5.0;
        Alcotest.(check (float 1e-9)) "single" 5.0 (Metrics.Histogram.quantile h 0.5);
        Metrics.Histogram.add h 1.0;
        Alcotest.(check (float 1e-9)) "min updates" 1.0 (Metrics.Histogram.min h));
    Alcotest.test_case "counter" `Quick (fun () ->
        let c = Metrics.Counter.create () in
        Metrics.Counter.incr c;
        Metrics.Counter.incr ~by:5 c;
        Alcotest.(check int) "value" 6 (Metrics.Counter.value c);
        Metrics.Counter.reset c;
        Alcotest.(check int) "reset" 0 (Metrics.Counter.value c));
    Alcotest.test_case "reservoir bounds memory, keeps moments exact" `Quick (fun () ->
        let h = Metrics.Histogram.create ~cap:1000 () in
        let n = 100_000 in
        for i = 1 to n do
          Metrics.Histogram.add h (float_of_int i)
        done;
        Alcotest.(check int) "count sees everything" n (Metrics.Histogram.count h);
        Alcotest.(check int) "sample stays bounded" 1000
          (Metrics.Histogram.sample_size h);
        Alcotest.(check (float 1e-6)) "mean exact" 50000.5 (Metrics.Histogram.mean h);
        Alcotest.(check (float 1e-9)) "min exact" 1.0 (Metrics.Histogram.min h);
        Alcotest.(check (float 1e-9)) "max exact" (float_of_int n)
          (Metrics.Histogram.max h);
        let p50 = Metrics.Histogram.quantile h 0.5 in
        Alcotest.(check bool) "p50 within 10%" true
          (Float.abs (p50 -. 50000.0) < 5000.0);
        let p99 = Metrics.Histogram.quantile h 0.99 in
        Alcotest.(check bool) "p99 within 2%" true
          (Float.abs (p99 -. 99000.0) < 2000.0));
    Alcotest.test_case "weighted add equals repeated add below cap" `Quick (fun () ->
        let h = Metrics.Histogram.create () in
        Metrics.Histogram.add_weighted h 10.0 ~weight:5;
        Metrics.Histogram.add_weighted h 20.0 ~weight:5;
        Alcotest.(check int) "count" 10 (Metrics.Histogram.count h);
        Alcotest.(check (float 1e-9)) "mean" 15.0 (Metrics.Histogram.mean h);
        Alcotest.(check (float 1e-9)) "sum" 150.0 (Metrics.Histogram.sum h);
        Alcotest.(check (float 1e-9)) "p50" 15.0 (Metrics.Histogram.quantile h 0.5);
        Alcotest.(check (float 1e-9)) "min" 10.0 (Metrics.Histogram.min h);
        Alcotest.(check (float 1e-9)) "max" 20.0 (Metrics.Histogram.max h));
    Alcotest.test_case "weighted add past cap keeps totals exact" `Quick (fun () ->
        let h = Metrics.Histogram.create ~cap:100 () in
        for _ = 1 to 100 do
          Metrics.Histogram.add_weighted h 1.0 ~weight:500
        done;
        Metrics.Histogram.add_weighted h 3.0 ~weight:50_000 ;
        Alcotest.(check int) "count" 100_000 (Metrics.Histogram.count h);
        Alcotest.(check (float 1e-6)) "mean" 2.0 (Metrics.Histogram.mean h);
        Alcotest.(check int) "bounded" 100 (Metrics.Histogram.sample_size h));
    Alcotest.test_case "series buckets dense" `Quick (fun () ->
        let s = Metrics.Series.create ~bucket_width:10.0 in
        Metrics.Series.add s ~time:5.0 1.0;
        Metrics.Series.add s ~time:7.0 2.0;
        Metrics.Series.add s ~time:35.0 4.0;
        let buckets = Metrics.Series.buckets s in
        Alcotest.(check int) "4 buckets incl gaps" 4 (Array.length buckets);
        Alcotest.(check (float 1e-9)) "first sum" 3.0 (snd buckets.(0));
        Alcotest.(check (float 1e-9)) "gap sum" 0.0 (snd buckets.(1));
        Alcotest.(check (float 1e-9)) "last sum" 4.0 (snd buckets.(3));
        let counts = Metrics.Series.counts s in
        Alcotest.(check int) "first count" 2 (snd counts.(0)));
  ]

(* --- cohorts --------------------------------------------------------- *)

let cohort_tests =
  [
    Alcotest.test_case "expand shrinks the aggregate once" `Quick (fun () ->
        let topo = Topology.create ~regions:1 ~clusters_per_region:1 ~nodes_per_cluster:12 in
        let c = Cohort.of_cluster topo ~region:0 ~cluster:0 ~skip_head:2 ~skip_tail:5 in
        Alcotest.(check int) "size" 5 (Cohort.size c);
        Alcotest.(check int) "weight" 5 (Cohort.weight c);
        Alcotest.(check int) "rep node" 2 (Cohort.node c);
        Alcotest.(check int) "member 0" 2 (Cohort.member_node c 0);
        Alcotest.(check int) "member 4" 6 (Cohort.member_node c 4);
        let resized = ref (-1) and expanded = ref None in
        Cohort.on_resize c (fun w -> resized := w);
        Cohort.on_expand c (fun i node -> expanded := Some (i, node));
        Alcotest.(check bool) "first expand" true (Cohort.expand c 3);
        Alcotest.(check int) "weight shrank" 4 (Cohort.weight c);
        Alcotest.(check int) "resize hook" 4 !resized;
        Alcotest.(check (option (pair int int))) "expand hook" (Some (3, 5)) !expanded;
        Alcotest.(check bool) "second expand is a no-op" false (Cohort.expand c 3);
        Alcotest.(check int) "weight unchanged" 4 (Cohort.weight c);
        Alcotest.(check int) "expanded count" 1 (Cohort.expanded_count c);
        Alcotest.(check bool) "is_expanded" true (Cohort.is_expanded c 3));
    Alcotest.test_case "flat per-member state" `Quick (fun () ->
        let c = Cohort.create ~size:1000 ~node:0 () in
        Cohort.set_state c 999 42.0;
        Alcotest.(check (float 1e-9)) "get" 42.0 (Cohort.get_state c 999);
        Alcotest.(check (float 1e-9)) "default" 0.0 (Cohort.get_state c 0));
    Alcotest.test_case "record uses current weight" `Quick (fun () ->
        let c = Cohort.create ~size:10 ~node:0 () in
        let h = Metrics.Histogram.create () in
        Cohort.record c h 1.0;
        Alcotest.(check bool) "one expand" true (Cohort.expand c 0);
        Cohort.record c h 2.0;
        Alcotest.(check int) "10 + 9 samples" 19 (Metrics.Histogram.count h));
    Alcotest.test_case "swarm cohort replication completes all members" `Quick
      (fun () ->
        let engine = Engine.create () in
        let topo = Topology.create ~regions:1 ~clusters_per_region:1 ~nodes_per_cluster:8 in
        let net = Net.create engine topo in
        let swarm = Cm_packagevessel.Swarm.create net ~storage:7 in
        let content =
          { Cm_packagevessel.Swarm.cname = "pkg"; cversion = 1; csize = 8 * 1024 * 1024 }
        in
        Cm_packagevessel.Swarm.publish swarm content;
        Engine.run engine;
        let done_at = ref nan in
        Cm_packagevessel.Swarm.fetch ~weight:5 swarm ~node:0
          ~mode:Cm_packagevessel.Swarm.P2p_local content ~on_complete:(fun () ->
            done_at := Engine.now engine);
        Engine.run engine;
        Alcotest.(check bool) "completed" true (Float.is_finite !done_at);
        Alcotest.(check int) "whole cohort counted" 5
          (Cm_packagevessel.Swarm.completed_weight swarm content);
        (* 4 member copies of 8MB each ride the wire on top of the
           representative's own 2-chunk download. *)
        Alcotest.(check bool) "replication bytes accounted" true
          (Net.bytes_sent net >= 5 * 8 * 1024 * 1024));
  ]

(* --- cohort == individually expanded (the tentpole property) ---------- *)

(* One cluster, [k] subscriber servers, an identical write schedule.
   Run A gives every server its own weight-1 proxy; run B aggregates
   them into one weight-k representative.  With loss off, the two runs
   must agree exactly on wire bytes, message counts and weighted
   effective deliveries, and closely on latency quantiles (jitter is
   drawn per-message, so only timing — never accounting — differs). *)
let run_zeus ~aggregate ~k ~writes ~seed =
  let engine = Engine.create ~seed () in
  let topo = Topology.create ~regions:1 ~clusters_per_region:1 ~nodes_per_cluster:12 in
  let net = Net.create engine topo in
  let zeus = Zeus.create net in
  let paths = [ "conf/a"; "conf/b"; "conf/c" ] in
  let lat = Metrics.Histogram.create () in
  let issue = Hashtbl.create 8 in
  let proxies =
    if aggregate then [ Zeus.proxy_on ~weight:k zeus 2 ]
    else List.init k (fun i -> Zeus.proxy_on zeus (2 + i))
  in
  List.iter
    (fun proxy ->
      let w = Zeus.proxy_weight proxy in
      List.iter
        (fun path ->
          Zeus.subscribe proxy ~path (fun ~zxid:_ _ ->
              match Hashtbl.find_opt issue path with
              | Some t0 ->
                  Metrics.Histogram.add_weighted lat
                    (Engine.now engine -. t0) ~weight:w
              | None -> ()))
        paths)
    proxies;
  (* Let registration and initial pushes settle, then measure only the
     steady-state write traffic. *)
  Engine.run ~until:5.0 engine;
  Net.reset_counters net;
  List.iteri
    (fun i (path_idx, data) ->
      let path = List.nth paths (path_idx mod List.length paths) in
      ignore
        (Engine.at engine ~time:(6.0 +. float_of_int i) (fun () ->
             Hashtbl.replace issue path (Engine.now engine);
             Zeus.write zeus ~path ~data)))
    writes;
  Engine.run ~until:(6.0 +. float_of_int (List.length writes) +. 30.0) engine;
  let deliveries =
    List.fold_left (fun acc p -> acc + Zeus.deliveries_weighted p) 0 proxies
  in
  (Net.bytes_sent net, Net.messages_sent net, deliveries, lat)

let cohort_equivalence_property =
  QCheck2.Test.make
    ~name:"cohort-aggregated zeus run observationally equals expanded run"
    ~count:30
    QCheck2.Gen.(
      triple (int_range 1 5)
        (list_size (int_range 1 8)
           (pair (int_range 0 2) (string_size ~gen:printable (int_range 1 64))))
        (int_range 0 10000))
    (fun (k, writes, seed) ->
      let seed = Int64.of_int seed in
      let b_a, m_a, d_a, lat_a = run_zeus ~aggregate:false ~k ~writes ~seed in
      let b_b, m_b, d_b, lat_b = run_zeus ~aggregate:true ~k ~writes ~seed in
      let close p =
        let a = Metrics.Histogram.quantile lat_a p
        and b = Metrics.Histogram.quantile lat_b p in
        (Float.is_nan a && Float.is_nan b)
        || Float.abs (a -. b) <= 0.5 *. Float.max a b
      in
      if b_a <> b_b then
        QCheck2.Test.fail_reportf "bytes differ: %d (expanded) vs %d (cohort)" b_a b_b
      else if m_a <> m_b then
        QCheck2.Test.fail_reportf "messages differ: %d vs %d" m_a m_b
      else if d_a <> d_b then
        QCheck2.Test.fail_reportf "weighted deliveries differ: %d vs %d" d_a d_b
      else if Metrics.Histogram.count lat_a <> Metrics.Histogram.count lat_b then
        QCheck2.Test.fail_reportf "latency sample counts differ: %d vs %d"
          (Metrics.Histogram.count lat_a)
          (Metrics.Histogram.count lat_b)
      else if not (close 0.5 && close 0.95) then
        QCheck2.Test.fail_reportf "latency quantiles diverge: p50 %g vs %g"
          (Metrics.Histogram.quantile lat_a 0.5)
          (Metrics.Histogram.quantile lat_b 0.5)
      else true)

let cohort_property_tests = [ QCheck_alcotest.to_alcotest cohort_equivalence_property ]

let () =
  Alcotest.run "cm_sim"
    [
      "rng", rng_tests;
      "heap", heap_tests;
      "engine", engine_tests;
      "engine-properties", engine_property_tests;
      "topology", topo_tests;
      "net", net_tests;
      "metrics", metrics_tests;
      "cohort", cohort_tests;
      "cohort-equivalence", cohort_property_tests;
    ]
