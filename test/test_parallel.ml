(* The multicore landing path: domain pool semantics, the one-fan-out
   compile, the single-domain memo cache, and the headline
   guarantee — compile/verify on an N-domain pool produces
   bit-identical output to a 1-domain pool, which runs everything
   inline on the caller.

   - pool: input order preserved under uneven work; exceptions
     propagate after the join; every item is applied exactly once; the
     caller's domain works as worker 0; a pool never has more domains
     than the host has cores;
   - per-domain values: concurrent domains each own one value, and the
     fold sees every one of them exactly;
   - compile: an import chain compiles in one fan-out on a
     multi-domain pool (no compile reads another's artifact);
   - QCheck: compile_all / compile_affected on an N-domain pool equal
     the 1-domain run — artifact digests, error list and order, and
     the cache's counters and size (workers only read; the caller
     writes the cache at each join);
   - cache: two compilers share one cache one after the other;
   - verify + sandcastle fan-out: verdict lists identical on 1-domain
     vs N-domain pools; a jobs>1 pipeline lands the same changes, HEAD
     tree and cache totals as jobs=1;
   - pack recovery with a multi-domain scan recovers identical state. *)

module Compiler = Core.Compiler
module ST = Core.Source_tree
module Pipeline = Core.Pipeline
module Sandcastle = Core.Sandcastle
module Defense = Core.Defense
module Pool = Cm_parallel.Pool
module Per_domain = Cm_parallel.Per_domain
module Engine = Cm_sim.Engine

(* --- the pool --------------------------------------------------------- *)

let pool_tests =
  [
    Alcotest.test_case "map_array keeps input order under uneven work" `Quick (fun () ->
        let pool = Pool.create ~domains:4 () in
        let items = Array.init 100 (fun i -> i) in
        let out =
          Pool.map_array pool
            (fun i ->
              (* Uneven cost: some items allocate a lot more than
                 others, so domains finish out of order. *)
              if i mod 7 = 0 then
                ignore (Sys.opaque_identity (Array.make (10_000 + i) i));
              i * 3)
            items
        in
        Alcotest.(check (array int)) "ordered" (Array.map (fun i -> i * 3) items) out);
    Alcotest.test_case "empty input, zero spawns" `Quick (fun () ->
        let pool = Pool.create ~domains:4 () in
        Alcotest.(check (array int)) "empty" [||] (Pool.map_array pool (fun i -> i) [||]));
    Alcotest.test_case "exceptions re-raise on the caller after the join" `Quick
      (fun () ->
        let pool = Pool.create ~domains:4 () in
        Alcotest.check_raises "propagated" (Failure "boom") (fun () ->
            ignore
              (Pool.map_array pool
                 (fun i -> if i = 13 then failwith "boom" else i)
                 (Array.init 50 (fun i -> i)))));
    Alcotest.test_case "map_local merges each worker's state exactly once" `Quick
      (fun () ->
        (* Kept under its old name: map_array is now the primitive, and
           the property is that each item is applied exactly once. *)
        let pool = Pool.create ~domains:4 () in
        let applied = Array.init 200 (fun _ -> Atomic.make 0) in
        let out =
          Pool.map_array pool
            (fun i ->
              Atomic.incr applied.(i);
              i)
            (Array.init 200 (fun i -> i))
        in
        Alcotest.(check (array int)) "every item applied once" (Array.make 200 1)
          (Array.map Atomic.get applied);
        Alcotest.(check int) "results intact" 199 out.(199));
    Alcotest.test_case "the caller's domain works as worker 0" `Quick (fun () ->
        (* On a 2-domain pool each of the two items waits until both
           have started, which can only happen if the caller runs one
           of them beside the one spawned domain.  A deadline turns a
           broken pool into a failure instead of a hang.  A 1-core host
           clamps the pool to 1 domain, which runs both on the caller. *)
        let pool = Pool.create ~domains:2 () in
        let concurrent = Pool.domains pool = 2 in
        let started = Atomic.make 0 in
        let deadline = Unix.gettimeofday () +. 10.0 in
        let ran_on =
          Pool.map_array pool
            (fun _ ->
              Atomic.incr started;
              while concurrent && Atomic.get started < 2 do
                if Unix.gettimeofday () > deadline then
                  failwith "the second item never started";
                Domain.cpu_relax ()
              done;
              (Domain.self () :> int))
            [| 0; 1 |]
        in
        Alcotest.(check bool) "one item ran on the caller" true
          (Array.mem (Domain.self () :> int) ran_on);
        Alcotest.(check bool) "the other ran on another domain" concurrent
          (ran_on.(0) <> ran_on.(1)));
    Alcotest.test_case "a pool never exceeds the host's cores" `Quick (fun () ->
        let cores = Domain.recommended_domain_count () in
        Alcotest.(check int) "clamped to the cores" cores
          (Pool.domains (Pool.create ~domains:(cores + 3) ()));
        Alcotest.(check int) "at least one" 1 (Pool.domains (Pool.create ~domains:0 ()));
        Alcotest.(check int) "default" 1 (Pool.domains (Pool.create ())));
  ]

(* --- per-domain values --------------------------------------------------- *)

let per_domain_tests =
  [
    Alcotest.test_case "each domain bumps its own value; the fold sees them all" `Quick
      (fun () ->
        let counters = Per_domain.create (fun () -> ref 0) in
        let n = 100_000 and ndomains = 4 in
        (* Every domain starts bumping only once all are running, so
           their values are live at the same time. *)
        let ready = Atomic.make 0 in
        let deadline = Unix.gettimeofday () +. 10.0 in
        let workers =
          List.init ndomains (fun _ ->
              Domain.spawn (fun () ->
                  Atomic.incr ready;
                  while Atomic.get ready < ndomains do
                    if Unix.gettimeofday () > deadline then failwith "a domain never started";
                    Domain.cpu_relax ()
                  done;
                  let mine = Per_domain.get counters in
                  for _ = 1 to n do
                    incr mine
                  done))
        in
        List.iter Domain.join workers;
        let values = Per_domain.fold (fun acc c -> !c :: acc) [] counters in
        Alcotest.(check (list int)) "one value per domain, each bumped n times"
          (List.init ndomains (fun _ -> n))
          values);
  ]

(* --- the one fan-out ---------------------------------------------------- *)

let compile_tests =
  [
    Alcotest.test_case "a 5-link chain compiles with no errors on a multi-domain pool" `Quick
      (fun () ->
        let n = 5 in
        let path i = Printf.sprintf "chain/c%d.cconf" i in
        let source i =
          if i = n - 1 then Printf.sprintf "V%d = 1\nexport { i: %d, v: V%d }" i i i
          else
            Printf.sprintf "import \"%s\"\nV%d = V%d + 1\nexport { i: %d, v: V%d }"
              (path (i + 1)) i (i + 1) i i
        in
        let compiler = Compiler.create (ST.of_alist (List.init n (fun i -> path i, source i))) in
        let pool = Pool.create ~domains:3 () in
        let oks, errors = Compiler.compile_all ~pool compiler in
        Alcotest.(check int) "no errors" 0 (List.length errors);
        Alcotest.(check (list string)) "all compiled, in target order" (List.init n path)
          (List.map (fun c -> c.Compiler.config_path) oks));
  ]

(* --- equivalence: N domains == 1 domain ---------------------------------- *)

(* Adversarial generated cone: [nmods] shared modules (wide fan-out),
   every fourth config also imports its successor (import chains
   inside the cone), and seeds divisible by 7 plant parse errors in every third
   config. *)
let nmods = 5

let gen_module_path k = Printf.sprintf "modules/m%02d.cinc" k
let gen_config_path i = Printf.sprintf "configs/cfg_%03d.cconf" i

let gen_config_source ~n i seed =
  if seed mod 7 = 0 && i mod 3 = 0 then "export {"
  else begin
    let k = i mod nmods in
    let chain =
      if i mod 4 = 0 && i + 1 < n then
        Printf.sprintf "import \"%s\"\n" (gen_config_path (i + 1))
      else ""
    in
    Printf.sprintf "%simport \"%s\"\nB%03d = M%02d + %d\nexport { id: %d, v: %d, b: B%03d }"
      chain (gen_module_path k) i k seed i seed i
  end

let gen_tree n seed =
  ST.of_alist
    (List.init nmods (fun k -> gen_module_path k, Printf.sprintf "M%02d = %d" k (k + seed))
    @ List.init n (fun i -> gen_config_path i, gen_config_source ~n i seed))

(* The cache state a run leaves behind: counters and slots. *)
let cache_view compiler =
  let cache = Compiler.cache compiler in
  Compiler.Cache.hits cache, Compiler.Cache.misses cache, Compiler.Cache.size cache

(* Everything observable about a compile run: artifacts in output
   order with digests, the error list in output order, and the cache
   state.  Runs compile_all twice so the hit path counts. *)
let compile_view ?pool tree =
  let compiler = Compiler.create tree in
  let oks, errors = Compiler.compile_all ?pool compiler in
  let oks2, errors2 = Compiler.compile_all ?pool compiler in
  let render_ok c = c.Compiler.config_path, c.Compiler.digest in
  let render_err e =
    e.Compiler.at, Compiler.stage_name e.Compiler.stage, e.Compiler.message
  in
  ( List.map render_ok oks,
    List.map render_err errors,
    (List.map render_ok oks2, List.map render_err errors2),
    cache_view compiler )

let equivalence_property =
  QCheck2.Test.make ~name:"parallel compile (N domains) equals sequential" ~count:30
    QCheck2.Gen.(triple (int_range 2 4) (int_range 4 20) (int_range 0 99))
    (fun (domains, n, seed) ->
      let one = compile_view (gen_tree n seed) in
      let many = compile_view ~pool:(Pool.create ~domains ()) (gen_tree n seed) in
      one = many)

let affected_property =
  QCheck2.Test.make ~name:"parallel compile_affected equals sequential" ~count:30
    QCheck2.Gen.(triple (int_range 2 4) (int_range 4 20) (int_range 0 99))
    (fun (domains, n, seed) ->
      let view ?pool () =
        let tree = gen_tree n seed in
        let compiler = Compiler.create tree in
        ignore (Compiler.compile_all ?pool compiler);
        (* Edit a shared module: the cone is every config importing
           module 0, plus chain importers. *)
        ST.write tree (gen_module_path 0) (Printf.sprintf "M00 = %d" (seed + 1000));
        let oks, errors =
          Compiler.compile_affected ?pool compiler ~changed:[ gen_module_path 0 ]
        in
        ( List.map (fun c -> c.Compiler.config_path, c.Compiler.digest) oks,
          List.map (fun e -> e.Compiler.at, e.Compiler.message) errors,
          cache_view compiler )
      in
      view () = view ~pool:(Pool.create ~domains ()) ())

(* --- the cache ------------------------------------------------------------ *)

let cache_tests =
  [
    Alcotest.test_case "two domains compiling through one shared cache" `Quick
      (fun () ->
        (* Kept under its old name: the cache has one writer now, so two
           compilers over identical trees share it one after the other,
           as the live tree and a proposal clone do. *)
        let cache = Compiler.Cache.create () in
        let digests () =
          let compiler = Compiler.create ~cache (gen_tree 12 2) in
          let oks, errors = Compiler.compile_all ~pool:(Pool.create ~domains:2 ()) compiler in
          Alcotest.(check int) "no errors" 0 (List.length errors);
          String.concat "," (List.map (fun c -> c.Compiler.digest) oks)
        in
        let first = digests () in
        let second = digests () in
        Alcotest.(check string) "identical artifacts" first second;
        Alcotest.(check (pair int int)) "the second run is all hits" (12, 12)
          (Compiler.Cache.hits cache, Compiler.Cache.misses cache);
        (* The compilers share the slots: one per config, not per
           compiler. *)
        Alcotest.(check int) "one entry per config" 12 (Compiler.Cache.size cache));
  ]

(* --- defense stages: 1-domain and N-domain runs agree ------------------- *)

let render_verdicts verdicts =
  List.map (fun v -> Format.asprintf "%a" Defense.pp_verdict v) verdicts

let verify_input_of ?pool compiler compiled =
  {
    Pipeline.verify_changes = [];
    verify_compiled = compiled;
    verify_tree = Compiler.source_tree compiler;
    verify_depgraph = Compiler.depgraph compiler;
    verify_repo = Cm_vcs.Repo.create ();
    verify_validators = Compiler.validators compiler;
    verify_pool = pool;
  }

let stage_tests =
  [
    Alcotest.test_case "verify fan-out: verdict list identical, 1-domain vs N-domain" `Quick
      (fun () ->
        let compiler = Compiler.create (gen_tree 10 3) in
        let compiled, _ = Compiler.compile_all compiler in
        let run ?pool () =
          let registry = Cm_verify.Verify.standard () in
          Cm_verify.Verify.register_invariant registry ~name:"always-red" ~prefix:""
            (fun subset ->
              Defense.finding ~ok:false
                ~at:(List.hd subset).Compiler.artifact_path
                "planted failure");
          Cm_verify.Verify.register_test registry ~name:"ids-small" ~prefix:"configs/"
            (fun c ->
              match Cm_json.Value.member "id" c.Compiler.json with
              | Some (Cm_json.Value.Int id) when id < 1000 ->
                  Defense.finding ~ok:true "id in range"
              | _ -> Defense.finding ~ok:false ~at:c.Compiler.artifact_path "bad id");
          let verdicts =
            Cm_verify.Verify.run registry (verify_input_of ?pool compiler compiled)
          in
          ( render_verdicts verdicts,
            Cm_verify.Verify.checks_run registry,
            Cm_verify.Verify.failures registry )
        in
        let one = run () in
        let many = run ~pool:(Pool.create ~domains:4 ()) () in
        let one_rendered, one_run, one_failed = one in
        let many_rendered, many_run, many_failed = many in
        Alcotest.(check (list string)) "same verdicts" one_rendered many_rendered;
        Alcotest.(check int) "same checks_run" one_run many_run;
        Alcotest.(check int) "same failures" one_failed many_failed;
        Alcotest.(check bool) "something failed" true (one_failed > 0));
    Alcotest.test_case "sandcastle fan-out: report identical, 1-domain vs N-domain" `Quick
      (fun () ->
        let compiler = Compiler.create (gen_tree 10 3) in
        let compiled, _ = Compiler.compile_all compiler in
        let run ?pool () =
          render_verdicts (Sandcastle.run ?pool (Sandcastle.create ()) compiled)
        in
        Alcotest.(check (list string))
          "same report"
          (run ())
          (run ~pool:(Pool.create ~domains:4 ()) ()));
    Alcotest.test_case "a jobs>1 pipeline lands a change like jobs=1" `Quick (fun () ->
        let outcome_with jobs =
          let tree = gen_tree 8 4 in
          let engine = Engine.create ~seed:7L () in
          let topo =
            Cm_sim.Topology.create ~regions:1 ~clusters_per_region:1
              ~nodes_per_cluster:8
          in
          let net = Cm_sim.Net.create engine topo in
          let zeus = Cm_zeus.Service.create net in
          let pipeline = Pipeline.create ~jobs net zeus tree in
          Pipeline.bootstrap pipeline;
          Pipeline.start pipeline;
          let outcome =
            (* The 8-node toy topology is too small for the default
               canary spec; the stages under test all run before it. *)
            Pipeline.propose_sync pipeline ~author:"pat" ~skip_canary:true
              [ gen_module_path 1, "M01 = 4242" ]
          in
          let repo = Pipeline.repo pipeline in
          let head_tree =
            List.map (fun p -> p, Cm_vcs.Repo.read_file repo p) (Cm_vcs.Repo.ls repo)
          in
          let cache = Compiler.cache (Pipeline.compiler pipeline) in
          ( (Pipeline.outcome_stage outcome, Pipeline.landed_count pipeline),
            head_tree,
            (Compiler.Cache.hits cache, Compiler.Cache.misses cache, Compiler.Cache.size cache) )
        in
        let outcome1, tree1, counters1 = outcome_with 1 in
        let outcome3, tree3, counters3 = outcome_with 3 in
        Alcotest.(check (pair string int)) "same outcome" outcome1 outcome3;
        Alcotest.(check (pair string int)) "landed" ("landed", 1) outcome3;
        Alcotest.(check (list (pair string (option string))))
          "same HEAD tree bytes" tree1 tree3;
        Alcotest.(check (triple int int int)) "same cache hit/miss totals and size" counters1
          counters3);
  ]

(* --- pack recovery ----------------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let pack_tests =
  [
    Alcotest.test_case "multi-domain recovery scan recovers identical state" `Quick
      (fun () ->
        let dir = "_pack_parallel_test" in
        rm_rf dir;
        let backend d =
          Cm_vcs.Store.pack_backend ~segment_max_bytes:(1 lsl 14) ~domains:d dir
        in
        let repo = Cm_vcs.Repo.create ~store:(backend 1) () in
        for i = 1 to 120 do
          ignore
            (Cm_vcs.Repo.commit repo ~author:"t" ~message:"m"
               ~timestamp:(float_of_int i)
               [ Printf.sprintf "f%02d.json" (i mod 30), Some (Printf.sprintf "{\"i\":%d}" i) ])
        done;
        let head0 = Cm_vcs.Repo.head repo in
        Cm_vcs.Store.close (Cm_vcs.Repo.store repo);
        let view d =
          let store = Cm_vcs.Store.create ~backend:(backend d) () in
          let repo = Cm_vcs.Repo.of_store store in
          let pack = Option.get (Cm_vcs.Store.pack_handle store) in
          let v =
            ( Cm_vcs.Repo.head repo,
              Cm_vcs.Store.object_count store,
              List.sort String.compare (Cm_vcs.Store.oids store),
              (Cm_pack.Pack.recovery pack).Cm_pack.Pack.records_indexed )
          in
          Cm_vcs.Store.close store;
          v
        in
        let seq = view 1 in
        let par = view 3 in
        let head1, count1, _, indexed1 = seq in
        Alcotest.(check bool) "head survived" true (head1 = head0);
        Alcotest.(check bool) "sequential and parallel recovery agree" true (seq = par);
        Alcotest.(check bool) "recovery indexed everything" true (indexed1 = count1);
        rm_rf dir);
  ]

let () =
  Alcotest.run "parallel"
    [
      "pool", pool_tests;
      "per_domain", per_domain_tests;
      "compile", compile_tests;
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest [ equivalence_property; affected_property ]
      );
      "cache", cache_tests;
      "stages", stage_tests;
      "pack", pack_tests;
    ]
