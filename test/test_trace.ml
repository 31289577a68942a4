(* cm_trace: the span tracer, the propagation tracker, and the
   end-to-end instrumentation of the Zeus and pipeline planes —
   including the zero-cost-when-off guarantee (a traced and an
   untraced run are observationally identical). *)

module Engine = Cm_sim.Engine
module Topology = Cm_sim.Topology
module Net = Cm_sim.Net
module Zeus = Cm_zeus.Service
module Swarm = Cm_packagevessel.Swarm
module Tracer = Cm_trace.Tracer
module Propagation = Cm_trace.Propagation
module Pipeline = Core.Pipeline
module Client = Core.Client

(* --- tracer units (manual clock) ------------------------------------- *)

let clock = ref 0.0
let mk_tracer ?enabled () = Tracer.create ?enabled ~now:(fun () -> !clock) ()

let tracer_tests =
  [
    Alcotest.test_case "span chaining and collector basics" `Quick (fun () ->
        clock := 0.0;
        let tr = mk_tracer () in
        let root = Tracer.new_trace tr ~name:"change:test" in
        Alcotest.(check bool) "traced" true (Tracer.is_traced root);
        let c1 = Tracer.span tr root ~name:"a" ~t0:0.0 ~t1:1.0 () in
        let c2 =
          Tracer.span tr c1 ~name:"b" ~src:1 ~dst:2 ~bytes:10 ~t0:1.0 ~t1:3.0 ()
        in
        Alcotest.(check bool) "children traced" true
          (Tracer.is_traced c1 && Tracer.is_traced c2);
        Alcotest.(check int) "same trace" (Tracer.trace_id root) (Tracer.trace_id c2);
        Alcotest.(check int) "two spans" 2 (Tracer.span_count tr);
        Alcotest.(check int) "one trace" 1 (Tracer.trace_count tr);
        Alcotest.(check (option string)) "name" (Some "change:test")
          (Tracer.trace_name tr (Tracer.trace_id root));
        Alcotest.(check (float 1e-9)) "end-to-end" 3.0
          (Tracer.trace_span tr (Tracer.trace_id root));
        let b =
          List.find (fun s -> s.Tracer.sname = "b")
            (Tracer.spans_of tr (Tracer.trace_id root))
        in
        Alcotest.(check int) "parent chain" b.Tracer.sparent
          (let a =
             List.find (fun s -> s.Tracer.sname = "a")
               (Tracer.spans_of tr (Tracer.trace_id root))
           in
           a.Tracer.sid);
        Alcotest.(check int) "bytes" 10 b.Tracer.sbytes);
    Alcotest.test_case "untraced ctx and disabled tracer are no-ops" `Quick (fun () ->
        let tr = mk_tracer () in
        let c = Tracer.span tr Tracer.none ~name:"x" ~t0:0.0 ~t1:1.0 () in
        Alcotest.(check bool) "stays none" false (Tracer.is_traced c);
        Tracer.event tr Tracer.none ~name:"y" ();
        Alcotest.(check int) "no spans" 0 (Tracer.span_count tr);
        let off = mk_tracer ~enabled:false () in
        let root = Tracer.new_trace off ~name:"nope" in
        Alcotest.(check bool) "disabled gives none" false (Tracer.is_traced root);
        Alcotest.(check int) "no traces" 0 (Tracer.trace_count off));
    Alcotest.test_case "hop stats percentiles" `Quick (fun () ->
        let tr = mk_tracer () in
        let root = Tracer.new_trace tr ~name:"t" in
        for i = 1 to 100 do
          ignore
            (Tracer.span tr root ~name:"hop" ~bytes:1
               ~t0:0.0 ~t1:(float_of_int i /. 100.0) ())
        done;
        match Tracer.hop_stats tr with
        | [ h ] ->
            Alcotest.(check string) "name" "hop" h.Tracer.hop;
            Alcotest.(check int) "count" 100 h.Tracer.count;
            Alcotest.(check bool) "p50 near middle" true
              (h.Tracer.p50 > 0.4 && h.Tracer.p50 < 0.6);
            Alcotest.(check bool) "p99 near top" true (h.Tracer.p99 >= 0.98);
            Alcotest.(check (float 1e-9)) "max" 1.0 h.Tracer.max_s;
            Alcotest.(check int) "bytes" 100 h.Tracer.total_bytes
        | l -> Alcotest.failf "expected one hop, got %d" (List.length l));
    Alcotest.test_case "critical path follows time contiguity" `Quick (fun () ->
        let tr = mk_tracer () in
        let root = Tracer.new_trace tr ~name:"t" in
        ignore (Tracer.span tr root ~name:"a" ~t0:0.0 ~t1:1.0 ());
        ignore (Tracer.span tr root ~name:"b" ~t0:1.0 ~t1:2.0 ());
        ignore (Tracer.span tr root ~name:"c" ~t0:1.0 ~t1:5.0 ());
        ignore (Tracer.span tr root ~name:"d" ~t0:5.0 ~t1:6.0 ());
        let path = Tracer.critical_path tr (Tracer.trace_id root) in
        Alcotest.(check (list string)) "root-first chain" [ "a"; "c"; "d" ]
          (List.map (fun s -> s.Tracer.sname) path));
    Alcotest.test_case "waterfall and hop report render" `Quick (fun () ->
        let tr = mk_tracer () in
        let root = Tracer.new_trace tr ~name:"change:x" in
        ignore (Tracer.span tr root ~name:"zeus.commit" ~src:0 ~dst:0 ~t0:0.0 ~t1:0.5 ());
        let w = Tracer.waterfall tr (Tracer.trace_id root) in
        Alcotest.(check bool) "has header" true
          (String.length w > 0
          && String.sub w 0 5 = "trace");
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "hop listed" true (contains w "zeus.commit");
        Alcotest.(check bool) "report lists hop" true
          (contains (Tracer.hop_report tr) "zeus.commit"));
    Alcotest.test_case "percentile helper" `Quick (fun () ->
        let a = [| 1.0; 2.0; 3.0; 4.0 |] in
        Alcotest.(check (float 1e-9)) "p0" 1.0 (Tracer.percentile a 0.0);
        Alcotest.(check (float 1e-9)) "p100" 4.0 (Tracer.percentile a 1.0);
        Alcotest.(check bool) "empty is nan" true
          (Float.is_nan (Tracer.percentile [||] 0.5)));
  ]

(* --- propagation tracker units --------------------------------------- *)

let propagation_tests =
  [
    Alcotest.test_case "coverage and commit-to-subscriber latency" `Quick (fun () ->
        clock := 0.0;
        let p = Propagation.create ~now:(fun () -> !clock) () in
        Propagation.register_target p ~path:"x" ~node:1 ();
        Propagation.register_target p ~path:"x" ~node:2 ();
        Propagation.note_commit p ~path:"x" ~zxid:1 ~digest:"d1";
        Alcotest.(check (float 1e-9)) "nothing arrived" 0.0
          (Propagation.coverage p ~path:"x" ~zxid:1 ());
        clock := 2.0;
        Propagation.record_arrival p ~path:"x" ~node:1 ~zxid:1 ();
        Alcotest.(check (float 1e-9)) "half" 0.5
          (Propagation.coverage p ~path:"x" ~zxid:1 ());
        Alcotest.(check int) "one sample" 1 (Propagation.latency_count p);
        Alcotest.(check (float 1e-9)) "2s commit-to-subscriber" 2.0
          (Propagation.latency_percentile p 1.0);
        clock := 3.0;
        Propagation.record_arrival p ~path:"x" ~node:2 ~zxid:1 ();
        Alcotest.(check (float 1e-9)) "full" 1.0
          (Propagation.coverage p ~path:"x" ~zxid:1 ());
        Alcotest.(check (float 1e-9)) "fleet converged" 1.0
          (Propagation.min_coverage_latest p ()));
    Alcotest.test_case "stale arrivals never lower a holder" `Quick (fun () ->
        clock := 0.0;
        let p = Propagation.create ~now:(fun () -> !clock) () in
        Propagation.register_target p ~path:"x" ~node:1 ();
        Propagation.note_commit p ~path:"x" ~zxid:2 ~digest:"d2";
        Propagation.record_arrival p ~path:"x" ~node:1 ~zxid:2 ();
        Propagation.record_arrival p ~path:"x" ~node:1 ~zxid:1 ();
        Alcotest.(check (float 1e-9)) "still at 2" 1.0
          (Propagation.coverage p ~path:"x" ~zxid:2 ());
        Alcotest.(check (list (pair int int))) "holder zxid" [ 1, 2 ]
          (Propagation.holders p ~path:"x" ()));
    Alcotest.test_case "digest coverage and kinds" `Quick (fun () ->
        clock := 0.0;
        let p = Propagation.create ~now:(fun () -> !clock) () in
        Propagation.register_target p ~path:"x" ~node:1 ();
        Propagation.register_target p ~kind:"client" ~path:"x" ~node:9 ();
        Propagation.record_arrival p ~digest:"d1" ~path:"x" ~node:1 ~zxid:1 ();
        Alcotest.(check (float 1e-9)) "proxy digest coverage" 1.0
          (Propagation.coverage_digest p ~kind:"proxy" ~path:"x" ~digest:"d1" ());
        Alcotest.(check (float 1e-9)) "client still behind" 0.0
          (Propagation.coverage p ~kind:"client" ~path:"x" ~zxid:1 ());
        Alcotest.(check int) "one client target" 1
          (Propagation.target_count p ~kind:"client" ~path:"x" ()));
    Alcotest.test_case "no targets means vacuous coverage" `Quick (fun () ->
        let p = Propagation.create ~now:(fun () -> !clock) () in
        Alcotest.(check (float 1e-9)) "vacuous" 1.0
          (Propagation.coverage p ~path:"ghost" ~zxid:1 ()));
  ]

(* --- Zeus end to end -------------------------------------------------- *)

let zeus_setup ?(seed = 42L) ?(traced = true) () =
  let engine = Engine.create ~seed () in
  let topo =
    Topology.create ~regions:2 ~clusters_per_region:2 ~nodes_per_cluster:10
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
  let zeus = Zeus.create net in
  let prop =
    if traced then begin
      let p = Propagation.create ~now:(fun () -> Engine.now engine) () in
      Zeus.set_propagation zeus p;
      Some p
    end
    else None
  in
  engine, topo, net, zeus, tracer, prop

let hop_names tr tid =
  List.sort_uniq String.compare
    (List.map (fun s -> s.Tracer.sname) (Tracer.spans_of tr tid))

let zeus_tests =
  [
    Alcotest.test_case "traced write records the distribution hops" `Quick (fun () ->
        let engine, topo, _, zeus, tracer, prop = zeus_setup () in
        let tr = Option.get tracer and p = Option.get prop in
        Array.iter
          (fun (n : Topology.node) ->
            let proxy = Zeus.proxy_on zeus n.id in
            Zeus.subscribe proxy ~path:"cfg/a" (fun ~zxid:_ _ -> ()))
          (Topology.nodes topo);
        Engine.run_for engine 1.0;
        let ctx = Tracer.new_trace tr ~name:"change:a" in
        Zeus.write ~ctx zeus ~path:"cfg/a" ~data:"v1";
        Engine.run_for engine 30.0;
        let names = hop_names tr (Tracer.trace_id ctx) in
        List.iter
          (fun h ->
            Alcotest.(check bool) (h ^ " recorded") true (List.mem h names))
          [
            "zeus.commit"; "zeus.batch_wait"; "zeus.fanout"; "zeus.relay";
            "zeus.notify"; "zeus.fetch_req"; "zeus.fetch"; "zeus.deliver";
          ];
        Alcotest.(check bool) "has end-to-end latency" true
          (Tracer.trace_span tr (Tracer.trace_id ctx) > 0.0);
        (* The critical path cannot exceed the trace's extent. *)
        let crit =
          List.fold_left
            (fun acc s -> acc +. (s.Tracer.st1 -. s.Tracer.st0))
            0.0
            (Tracer.critical_path tr (Tracer.trace_id ctx))
        in
        Alcotest.(check bool) "critical path bounded" true
          (crit > 0.0
          && crit <= Tracer.trace_span tr (Tracer.trace_id ctx) +. 1e-9);
        (* Every subscribed proxy ends up a covered target. *)
        Alcotest.(check int) "all proxies tracked" (Topology.node_count topo)
          (Propagation.target_count p ~path:"cfg/a" ());
        Alcotest.(check (float 1e-9)) "coverage 1.0" 1.0
          (Propagation.coverage p ~path:"cfg/a" ~zxid:1 ());
        Alcotest.(check bool) "latency samples" true
          (Propagation.latency_count p > 0));
    Alcotest.test_case "deduped rewrite covers via cache ack" `Quick (fun () ->
        let engine, _, _, zeus, tracer, prop = zeus_setup () in
        let tr = Option.get tracer and p = Option.get prop in
        let proxy = Zeus.proxy_on zeus 3 in
        Zeus.subscribe proxy ~path:"cfg/d" (fun ~zxid:_ _ -> ());
        Engine.run_for engine 1.0;
        Zeus.write zeus ~path:"cfg/d" ~data:"same";
        Engine.run_for engine 10.0;
        let ctx = Tracer.new_trace tr ~name:"change:noop" in
        Zeus.write ~ctx zeus ~path:"cfg/d" ~data:"same";
        Engine.run_for engine 10.0;
        Alcotest.(check bool) "cache ack span" true
          (List.mem "zeus.cache_ack" (hop_names tr (Tracer.trace_id ctx)));
        Alcotest.(check (float 1e-9)) "zxid 2 covered without fetch" 1.0
          (Propagation.coverage p ~path:"cfg/d" ~zxid:2 ()));
    Alcotest.test_case "client want registers a client target" `Quick (fun () ->
        let engine, _, _, zeus, _, prop = zeus_setup () in
        let p = Option.get prop in
        let client = Client.create zeus ~node:5 in
        Client.want client "cfg/c";
        Engine.run_for engine 1.0;
        Zeus.write zeus ~path:"cfg/c" ~data:{|{"k":1}|};
        Engine.run_for engine 30.0;
        Alcotest.(check int) "client target" 1
          (Propagation.target_count p ~kind:"client" ~path:"cfg/c" ());
        Alcotest.(check (float 1e-9)) "client covered" 1.0
          (Propagation.coverage p ~kind:"client" ~path:"cfg/c" ~zxid:1 ()));
  ]

(* --- PackageVessel spans --------------------------------------------- *)

let swarm_tests =
  [
    Alcotest.test_case "chunk transfers record pv spans" `Quick (fun () ->
        let engine = Engine.create ~seed:42L () in
        let topo =
          Topology.create ~regions:1 ~clusters_per_region:1 ~nodes_per_cluster:10
        in
        let net = Net.create engine topo in
        let tr = Tracer.create ~now:(fun () -> Engine.now engine) () in
        Net.set_tracer net tr;
        let swarm = Swarm.create net ~storage:9 in
        let content = { Swarm.cname = "model"; cversion = 1; csize = 16 * 1024 * 1024 } in
        Swarm.publish swarm content;
        let ctx = Tracer.new_trace tr ~name:"bulk:model" in
        let finished = ref false in
        Swarm.fetch ~ctx swarm ~node:0 ~mode:Swarm.P2p_local content
          ~on_complete:(fun () -> finished := true);
        Engine.run engine;
        Alcotest.(check bool) "fetch completed" true !finished;
        let names = hop_names tr (Tracer.trace_id ctx) in
        List.iter
          (fun h -> Alcotest.(check bool) (h ^ " recorded") true (List.mem h names))
          [ "pv.chunk_req"; "pv.chunk"; "pv.complete" ]);
  ]

(* --- pipeline end to end ---------------------------------------------- *)

let pipeline_tree () =
  Core.Source_tree.of_alist
    [
      ( "schemas/job.thrift",
        "struct Job {\n  1: required string name;\n  2: optional i32 memory_mb = 1024;\n}\n" );
      ( "modules/create_job.cinc",
        "import_thrift \"schemas/job.thrift\"\n\
         def create_job(name, memory = 1024) = Job { name = name, memory_mb = memory }\n" );
      "jobs/cache_job.cconf", "import \"modules/create_job.cinc\"\nexport create_job(\"cache\")\n";
      "raw/knob.json", {|{"threshold": 5}|};
    ]

(* A traced pipeline over [pipeline_tree], bootstrapped and started. *)
let traced_pipeline ?verify () =
  let engine = Engine.create ~seed:21L () in
  let topo = Topology.create ~regions:2 ~clusters_per_region:2 ~nodes_per_cluster:10 in
  let net = Net.create engine topo in
  let tr = Tracer.create ~now:(fun () -> Engine.now engine) () in
  Net.set_tracer net tr;
  let pipeline = Pipeline.create ?verify net (Zeus.create net) (pipeline_tree ()) in
  Pipeline.bootstrap pipeline;
  Pipeline.start pipeline;
  engine, tr, pipeline

let trace_named tr name =
  List.find (fun tid -> Tracer.trace_name tr tid = Some name) (Tracer.trace_ids tr)

let pipeline_tests =
  [
    Alcotest.test_case "a landed change is traced from submit to delivery" `Quick
      (fun () ->
        let engine, tr, pipeline = traced_pipeline () in
        let client = Client.create (Pipeline.zeus pipeline) ~node:11 in
        Client.want client "raw/knob.json";
        Engine.run_for engine 5.0;
        let outcome =
          Pipeline.propose_sync pipeline ~author:"dana" ~title:"bump knob"
            [ "raw/knob.json", {|{"threshold": 9}|} ]
        in
        Alcotest.(check string) "landed" "landed" (Pipeline.outcome_stage outcome);
        Engine.run_for engine 60.0;
        (* One trace per proposed change, named after the title. *)
        let names = hop_names tr (trace_named tr "change:bump knob") in
        List.iter
          (fun h -> Alcotest.(check bool) (h ^ " recorded") true (List.mem h names))
          [
            "pipeline.compile"; "pipeline.sandcastle"; "pipeline.review";
            "pipeline.canary"; "landing.commit"; "tailer.poll_wait";
            "zeus.commit"; "zeus.deliver";
          ];
        (* The canary phases appear under their configured names. *)
        Alcotest.(check bool) "canary phase spans" true
          (List.exists
             (fun n -> String.length n > 7 && String.sub n 0 7 = "canary.")
             names));
  ]

(* --- the landing path, pinned per outcome ------------------------------ *)

(* Each way a proposal can end, recorded three ways: the outcome stage;
   the chain of pipeline and landing spans in the change's trace, each
   as "name <- parent [tags]"; and the rules posted to the change's
   review diff.  Every stage leaves its span whether it passes or
   bounces the change. *)

let cache_job memory =
  ( "jobs/cache_job.cconf",
    Printf.sprintf "import \"modules/create_job.cinc\"\nexport create_job(\"cache\", %d)\n"
      memory )

let pin_path ?verify ?(before = fun _ -> ()) ?skip_canary ?sampler changes =
  let _, tr, pipeline = traced_pipeline ?verify () in
  before pipeline;
  let review = Pipeline.review pipeline in
  let diff_id = Core.Review.count review + 1 in
  let outcome =
    Pipeline.propose_sync pipeline ~author:"dana" ~title:"pinned" ?skip_canary ?sampler
      changes
  in
  let spans = Tracer.spans_of tr (trace_named tr "change:pinned") in
  let name_of sid =
    if sid = 0 then "root"
    else (List.find (fun s -> s.Tracer.sid = sid) spans).Tracer.sname
  in
  let chain =
    List.filter_map
      (fun s ->
        let n = s.Tracer.sname in
        if String.starts_with ~prefix:"pipeline." n || String.starts_with ~prefix:"landing." n
        then
          Some
            (Printf.sprintf "%s <- %s [%s]" n (name_of s.Tracer.sparent)
               (String.concat " "
                  (List.map (fun (k, v) -> k ^ "=" ^ v) s.Tracer.stags)))
        else None)
      spans
  in
  let rules =
    match Core.Review.get review diff_id with
    | Some diff ->
        List.map
          (fun v ->
            Printf.sprintf "%s/%s:%b" v.Core.Defense.stage v.Core.Defense.rule
              v.Core.Defense.passed)
          diff.Core.Review.test_results
    | None -> []
  in
  Pipeline.outcome_stage outcome, chain, rules

let landing_path_cases =
  let failing_verify _ =
    [ Core.Defense.fail ~stage:"verify" ~rule:"pinned-invariant" "memory too high" ]
  in
  let passing_verify _ = [ Core.Defense.pass ~stage:"verify" ~rule:"pinned-invariant" "ok" ] in
  let sandcastle_ok =
    [ "sandcastle/json-roundtrip:true"; "sandcastle/size-limit:true";
      "sandcastle/no-empty-export:true"; "sandcastle/schema-hash-present:true" ]
  in
  [
    ( "landed with canary",
      (fun () -> pin_path ~verify:passing_verify [ cache_job 4096 ]),
      ( "landed",
        [
          "pipeline.compile <- root [configs=1 errors=0]";
          "pipeline.verify <- pipeline.compile [passed=true]";
          "pipeline.sandcastle <- pipeline.verify [passed=true]";
          "pipeline.review <- pipeline.sandcastle [reviewer=alice]";
          "pipeline.canary <- pipeline.review []";
          "landing.commit <- pipeline.canary [files=2]";
        ],
        sandcastle_ok @ [ "verify/pinned-invariant:true" ] ) );
    ( "landed with skip_canary",
      (fun () -> pin_path ~skip_canary:true [ "raw/knob.json", {|{"threshold": 9}|} ]),
      ( "landed",
        [
          "pipeline.compile <- root [configs=1 errors=0]";
          "pipeline.sandcastle <- pipeline.compile [passed=true]";
          "pipeline.review <- pipeline.sandcastle [reviewer=alice]";
          "landing.commit <- pipeline.review [files=1]";
        ],
        sandcastle_ok ) );
    ( "compile error",
      (fun () -> pin_path [ "jobs/cache_job.cconf", "export nosuchthing" ]),
      ("compile", [ "pipeline.compile <- root [configs=0 errors=1]" ], []) );
    ( "bad .canary spec",
      (fun () -> pin_path [ "jobs/cache_job.cconf.canary", "{\"phases\": 3}"; cache_job 4096 ]),
      ("compile", [ "pipeline.compile <- root [configs=2 errors=1]" ], []) );
    ( "verify rejection",
      (fun () -> pin_path ~verify:failing_verify [ cache_job 99999 ]),
      ( "verify",
        [
          "pipeline.compile <- root [configs=1 errors=0]";
          "pipeline.verify <- pipeline.compile [passed=false]";
        ],
        [ "verify/pinned-invariant:false" ] ) );
    ( "sandcastle rejection",
      (fun () -> pin_path [ "raw/knob.json", "{}" ]),
      ( "sandcastle",
        [
          "pipeline.compile <- root [configs=1 errors=0]";
          "pipeline.sandcastle <- pipeline.compile [passed=false]";
        ],
        [ "sandcastle/json-roundtrip:true"; "sandcastle/size-limit:true";
          "sandcastle/no-empty-export:false"; "sandcastle/schema-hash-present:true";
          "review/risk-flag:raw/knob.json:true" ] ) );
    ( "review rejection during the delay",
      (fun () ->
        let before pipeline =
          ignore
            (Engine.schedule (Pipeline.engine pipeline) ~delay:60.0 (fun () ->
                 ignore
                   (Core.Review.reject (Pipeline.review pipeline) 1 ~reviewer:"erin"
                      ~reason:"not during the freeze")))
        in
        pin_path ~before [ cache_job 4096 ]),
      ( "review",
        [
          "pipeline.compile <- root [configs=1 errors=0]";
          "pipeline.sandcastle <- pipeline.compile [passed=true]";
          "pipeline.review <- pipeline.sandcastle [reviewer=alice]";
        ],
        sandcastle_ok ) );
    ( "canary failure",
      (fun () ->
        let sampler = Core.Faults.type_i_sampler (Cm_sim.Rng.create 8L) ~detectable:true in
        pin_path ~sampler [ cache_job 4096 ]),
      ( "canary",
        [
          "pipeline.compile <- root [configs=1 errors=0]";
          "pipeline.sandcastle <- pipeline.compile [passed=true]";
          "pipeline.review <- pipeline.sandcastle [reviewer=alice]";
          "pipeline.canary <- pipeline.review []";
        ],
        sandcastle_ok ) );
    ( "read-set conflict",
      (fun () ->
        (* A module edit proposed first lands first and moves a path
           the pinned change's artifact was compiled against. *)
        let before pipeline =
          Pipeline.propose pipeline ~author:"erin" ~title:"module" ~skip_canary:true
            [ "modules/create_job.cinc",
              "import_thrift \"schemas/job.thrift\"\n\
               def create_job(name, memory = 2048) = Job { name = name, memory_mb = memory }\n" ]
            ~on_done:ignore
        in
        pin_path ~before ~skip_canary:true [ cache_job 4096 ]),
      ( "conflict",
        [
          "pipeline.compile <- root [configs=1 errors=0]";
          "pipeline.sandcastle <- pipeline.compile [passed=true]";
          "pipeline.review <- pipeline.sandcastle [reviewer=alice]";
          "landing.conflict <- pipeline.review []";
        ],
        sandcastle_ok ) );
  ]

let landing_path_tests =
  List.map
    (fun (name, run, (stage, chain, rules)) ->
      Alcotest.test_case name `Quick (fun () ->
          let got_stage, got_chain, got_rules = run () in
          Alcotest.(check string) "outcome stage" stage got_stage;
          Alcotest.(check (list string)) "span chain" chain got_chain;
          Alcotest.(check (list string)) "review rules" rules got_rules))
    landing_path_cases

(* --- zero-cost-when-off property -------------------------------------- *)

(* A traced Zeus run and an untraced one must be observationally
   identical: same delivered (zxid, value) sequences at every proxy,
   same committed state, and bit-for-bit the same traffic (bytes,
   messages, leader egress).  Tracing may only add collector state. *)
let equivalence_property =
  let gen =
    QCheck2.Gen.(
      pair (int_range 0 1000000)
        (list_size (int_range 1 14)
           (triple (int_range 0 2) (int_range 0 3) (int_range 0 2))))
  in
  QCheck2.Test.make ~name:"traced run observationally equals untraced run"
    ~count:25 gen (fun (seed, schedule) ->
      let paths = [| "eq/a"; "eq/b"; "eq/c" |] in
      let run ~traced =
        let engine, _, _, zeus, tracer, _ =
          zeus_setup ~seed:(Int64.of_int seed) ~traced ()
        in
        let proxy = Zeus.proxy_on zeus 7 in
        let calls = Array.make 3 [] in
        Array.iteri
          (fun i path ->
            Zeus.subscribe proxy ~path (fun ~zxid data ->
                calls.(i) <- (zxid, data) :: calls.(i)))
          paths;
        Engine.run_for engine 1.0;
        List.iter
          (fun (p, v, gap) ->
            let ctx =
              match tracer with
              | Some tr -> Tracer.new_trace tr ~name:"change:eq"
              | None -> Tracer.none
            in
            Zeus.write ~ctx zeus ~path:paths.(p) ~data:(Printf.sprintf "v%d" v);
            if gap = 1 then Engine.run_for engine 0.2
            else if gap = 2 then Engine.run_for engine 2.0)
          schedule;
        Engine.run_for engine 60.0;
        let net = Zeus.net_of zeus in
        ( Array.map List.rev calls,
          Array.map (fun path -> Zeus.committed_value zeus path) paths,
          Net.bytes_sent net,
          Net.messages_sent net,
          Net.egress_bytes net (Zeus.leader_node zeus),
          match tracer with Some tr -> Tracer.span_count tr | None -> 0 )
      in
      let t_calls, t_finals, t_bytes, t_msgs, t_egress, t_spans = run ~traced:true in
      let u_calls, u_finals, u_bytes, u_msgs, u_egress, u_spans = run ~traced:false in
      t_calls = u_calls && t_finals = u_finals && t_bytes = u_bytes
      && t_msgs = u_msgs && t_egress = u_egress && u_spans = 0 && t_spans > 0)

let () =
  Alcotest.run "cm_trace"
    [
      "tracer", tracer_tests;
      "propagation", propagation_tests;
      "zeus", zeus_tests;
      "swarm", swarm_tests;
      "pipeline", pipeline_tests;
      "landing", landing_path_tests;
      "properties", [ QCheck_alcotest.to_alcotest equivalence_property ];
    ]
