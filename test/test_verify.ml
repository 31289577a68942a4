module ST = Core.Source_tree
module Defense = Core.Defense
module Validator = Core.Validator
module Compiler = Core.Compiler
module Pipeline = Core.Pipeline
module Review = Core.Review
module Faults = Core.Faults
module Engine = Cm_sim.Engine
module Verify = Cm_verify.Verify
module Static = Cm_verify.Static
module Repair = Cm_verify.Repair
module Consumers = Cm_verify.Consumers
module Json = Cm_json.Value

(* --- helpers ----------------------------------------------------------- *)

let compile_tree ?validators alist =
  let tree = ST.of_alist alist in
  let compiler = Compiler.create ?validators tree in
  let compiled, errors = Compiler.compile_all compiler in
  if errors <> [] then
    Alcotest.failf "unexpected compile errors: %s"
      (String.concat "; "
         (List.map (fun e -> Format.asprintf "%a" Compiler.pp_error e) errors));
  tree, compiler, compiled

let input_of ?repo ?validators ?pool (tree, compiler, compiled) =
  {
    Pipeline.verify_changes = [];
    verify_compiled = compiled;
    verify_tree = tree;
    verify_depgraph = Compiler.depgraph compiler;
    verify_repo = Option.value ~default:(Cm_vcs.Repo.create ()) repo;
    verify_validators =
      (match validators with Some v -> v | None -> Compiler.validators compiler);
    verify_pool = pool;
  }

let job_tree memory =
  [
    ( "schemas/job.thrift",
      {|
struct Job {
  1: required string name;
  2: optional i32 memory_mb = 1024;
}
|} );
    ( "modules/create_job.cinc",
      {|
import_thrift "schemas/job.thrift"
def create_job(name, memory = 1024) = Job { name = name, memory_mb = memory }
|} );
    ( "jobs/cache_job.cconf",
      Printf.sprintf
        "import \"modules/create_job.cinc\"\nexport create_job(\"cache\", %d)\n" memory );
  ]

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- the Defense API --------------------------------------------------- *)

let defense_tests =
  [
    Alcotest.test_case "pass/fail constructors and filters" `Quick (fun () ->
        let ok = Defense.pass ~stage:"verify" ~rule:"r1" "fine" in
        let bad = Defense.fail ~stage:"verify" ~rule:"r2" ~path:"a.json" "broken" in
        Alcotest.(check bool) "ok passed" true ok.Defense.passed;
        Alcotest.(check bool) "bad failed" false bad.Defense.passed;
        Alcotest.(check bool) "all_passed" false (Defense.all_passed [ ok; bad ]);
        Alcotest.(check bool) "all_passed empty" true (Defense.all_passed []);
        Alcotest.(check int) "one failure" 1 (List.length (Defense.failures [ ok; bad ])));
    Alcotest.test_case "of_finding keeps location and polarity" `Quick (fun () ->
        let f = Defense.finding ~ok:false ~at:"jobs/a.json" "too big" in
        let v = Defense.of_finding ~stage:"verify" ~rule:"size" f in
        Alcotest.(check string) "stage" "verify" v.Defense.stage;
        Alcotest.(check string) "path" "jobs/a.json" v.Defense.path;
        Alcotest.(check bool) "failed" false v.Defense.passed;
        Alcotest.(check string) "detail" "too big" v.Defense.detail);
    Alcotest.test_case "rejection summary names the first failure" `Quick (fun () ->
        let r =
          Defense.reject ~stage:"verify"
            [
              Defense.pass ~stage:"verify" ~rule:"clean" "ok";
              Defense.fail ~stage:"verify" ~rule:"dep-cycle" ~path:"m/a.cinc" "a -> b -> a";
            ]
        in
        Alcotest.(check string) "failed_stage" "verify" r.Defense.failed_stage;
        Alcotest.(check bool) "summary names rule" true
          (contains ~affix:"dep-cycle" (Defense.summary r)));
    Alcotest.test_case "verdict JSON carries the repair" `Quick (fun () ->
        let repair =
          Defense.repair ~origin:"last-landed" ~suggestion:{|{"x":1}|} "roll back"
        in
        let v = Defense.fail ~stage:"verify" ~rule:"t" ~repair "bad" in
        match Json.member "repair" (Defense.verdict_to_json v) with
        | Some r ->
            Alcotest.(check (option string)) "origin" (Some "last-landed")
              (match Json.member "origin" r with
              | Some (Json.String s) -> Some s
              | _ -> None)
        | None -> Alcotest.fail "repair missing from JSON");
  ]

(* --- static cross-artifact checks ------------------------------------- *)

(* A static check as [Verify.run] runs it: over the outlines of the
   cone's sources, as a dependency graph over the tree indexed them. *)
let run_static check tree compiled =
  let dep = Core.Depgraph.of_tree tree in
  check.Static.run ~outlines:(Static.cone_outlines dep compiled) ~compiled

let static_tests =
  [
    Alcotest.test_case "latent import cycle detected" `Quick (fun () ->
        (* The cycle sits in modules the config never evaluates at
           runtime — only the cone's closure analysis can see it. *)
        let tree, _, compiled =
          compile_tree
            [
              "mods/a.cinc", "import \"mods/b.cinc\"\nA = 1";
              "mods/b.cinc", "import \"mods/a.cinc\"\nB = 2";
              "raw/knob.json", {|{"threshold": 5}|};
            ]
        in
        (* Put the cycle's files into the cone by hand, as an edit to
           either would. *)
        let cone =
          List.map
            (fun c -> { c with Compiler.deps = [ "mods/a.cinc"; "mods/b.cinc" ] })
            compiled
        in
        match run_static Static.cycles tree cone with
        | [] -> Alcotest.fail "cycle not detected"
        | f :: _ ->
            Alcotest.(check bool) "failure" false f.Defense.ok;
            Alcotest.(check bool) "names the cycle" true
              (contains ~affix:"import cycle" f.Defense.note));
    Alcotest.test_case "acyclic cone is clean" `Quick (fun () ->
        let tree, _, compiled = compile_tree (job_tree 2048) in
        Alcotest.(check int) "no findings" 0
          (List.length (run_static Static.cycles tree compiled)));
    Alcotest.test_case "import-over-import shadow flagged" `Quick (fun () ->
        let tree, _, compiled =
          compile_tree
            [
              "mods/a.cinc", "TIMEOUT = 10";
              "mods/b.cinc", "TIMEOUT = 99";
              ( "cfg/site.cconf",
                "import \"mods/a.cinc\"\nimport \"mods/b.cinc\"\nexport { t: TIMEOUT }" );
            ]
        in
        match run_static Static.shadowed_exports tree compiled with
        | [] -> Alcotest.fail "shadow not detected"
        | f :: _ ->
            Alcotest.(check bool) "names both sources" true
              (contains ~affix:"shadows" f.Defense.note));
    Alcotest.test_case "local rebind over import flagged" `Quick (fun () ->
        let tree, _, compiled =
          compile_tree
            [
              "mods/a.cinc", "TIMEOUT = 10";
              "cfg/site.cconf", "import \"mods/a.cinc\"\nTIMEOUT = 5\nexport { t: TIMEOUT }";
            ]
        in
        match run_static Static.shadowed_exports tree compiled with
        | [] -> Alcotest.fail "local shadow not detected"
        | f :: _ ->
            Alcotest.(check bool) "says local binding" true
              (contains ~affix:"local binding" f.Defense.note));
    Alcotest.test_case "distinct names do not shadow" `Quick (fun () ->
        let tree, _, compiled =
          compile_tree
            [
              "mods/a.cinc", "A = 1";
              "mods/b.cinc", "B = 2";
              "cfg/site.cconf", "import \"mods/a.cinc\"\nimport \"mods/b.cinc\"\nexport { a: A, b: B }";
            ]
        in
        Alcotest.(check int) "clean" 0
          (List.length (run_static Static.shadowed_exports tree compiled)));
    Alcotest.test_case "artifact collision detected" `Quick (fun () ->
        let tree, _, compiled =
          compile_tree
            [ "jobs/a.cconf", "export { v: 1 }"; "jobs/a.json", {|{"v": 2}|} ]
        in
        match run_static Static.artifact_collisions tree compiled with
        | [ f ] ->
            Alcotest.(check string) "at the artifact" "jobs/a.json" f.Defense.at;
            Alcotest.(check bool) "lists both configs" true
              (contains ~affix:"jobs/a.cconf" f.Defense.note)
        | other -> Alcotest.failf "expected 1 finding, got %d" (List.length other));
  ]

(* --- repair selection --------------------------------------------------- *)

let repair_tests =
  [
    Alcotest.test_case "validator-range clamp to the nearest bound" `Quick (fun () ->
        let _, _, compiled = compile_tree (job_tree 99999) in
        let c = List.hd compiled in
        (* The range is declared but NOT registered with the compiler:
           exactly the gap the verify stage covers. *)
        let validators = Validator.create () in
        Validator.register validators ~type_name:"Job"
          (Validator.field_int_range ~field:"memory_mb" ~min:64 ~max:8192);
        let accepts json =
          match Json.member "memory_mb" json with
          | Some (Json.Int n) -> n <= 8192
          | _ -> false
        in
        match Repair.suggest ~validators ~compiled:c ~accepts () with
        | Some r ->
            Alcotest.(check string) "origin" "validator-range" r.Defense.origin;
            Alcotest.(check bool) "clamped to hi bound" true
              (contains ~affix:"8192" r.Defense.suggestion)
        | None -> Alcotest.fail "no repair suggested");
    Alcotest.test_case "candidates failing the check are never suggested" `Quick
      (fun () ->
        let _, _, compiled = compile_tree (job_tree 99999) in
        let c = List.hd compiled in
        let validators = Validator.create () in
        Validator.register validators ~type_name:"Job"
          (Validator.field_int_range ~field:"memory_mb" ~min:64 ~max:8192);
        (* The failing check is stricter than the declared range, so
           the clamp does not satisfy it; with no repo there is no
           fallback and no repair may be offered. *)
        let accepts json =
          match Json.member "memory_mb" json with
          | Some (Json.Int n) -> n <= 100
          | _ -> false
        in
        Alcotest.(check bool) "no repair" true
          (Repair.suggest ~validators ~compiled:c ~accepts () = None));
    Alcotest.test_case "last-landed fallback skips byte-identical revisions" `Quick
      (fun () ->
        let _, _, compiled = compile_tree (job_tree 99999) in
        let c = List.hd compiled in
        let repo = Cm_vcs.Repo.create () in
        let commit ts text =
          ignore
            (Cm_vcs.Repo.commit repo ~author:"t" ~message:"m" ~timestamp:ts
               [ c.Compiler.artifact_path, Some text ])
        in
        commit 1.0 {|{"memory_mb":2048,"name":"cache"}|};
        (* Most recent revision equals the proposal: must be skipped. *)
        commit 2.0 c.Compiler.json_text;
        let accepts json =
          match Json.member "memory_mb" json with
          | Some (Json.Int n) -> n <= 8192
          | _ -> false
        in
        match Repair.suggest ~repo ~compiled:c ~accepts () with
        | Some r ->
            Alcotest.(check string) "origin" "last-landed" r.Defense.origin;
            Alcotest.(check bool) "rolled back value" true
              (contains ~affix:"2048" r.Defense.suggestion)
        | None -> Alcotest.fail "no repair suggested");
    Alcotest.test_case "validator-range preferred over last-landed" `Quick (fun () ->
        let _, _, compiled = compile_tree (job_tree 99999) in
        let c = List.hd compiled in
        let validators = Validator.create () in
        Validator.register validators ~type_name:"Job"
          (Validator.field_int_range ~field:"memory_mb" ~min:64 ~max:8192);
        let repo = Cm_vcs.Repo.create () in
        ignore
          (Cm_vcs.Repo.commit repo ~author:"t" ~message:"m" ~timestamp:1.0
             [ c.Compiler.artifact_path, Some {|{"memory_mb":2048,"name":"cache"}|} ]);
        let accepts json =
          match Json.member "memory_mb" json with
          | Some (Json.Int n) -> n <= 8192
          | _ -> false
        in
        match Repair.suggest ~validators ~repo ~compiled:c ~accepts () with
        | Some r -> Alcotest.(check string) "origin" "validator-range" r.Defense.origin
        | None -> Alcotest.fail "no repair suggested");
  ]

(* --- consumer config tests --------------------------------------------- *)

let consumer_tests =
  [
    Alcotest.test_case "sitevar reader rejects null and applies accept" `Quick
      (fun () ->
        let _, _, compiled = compile_tree [ "sitevars/flag.json", {|{"on": true}|} ] in
        let c = List.hd compiled in
        let ok = Consumers.sitevar_reader () c in
        Alcotest.(check bool) "non-null passes" true ok.Defense.ok;
        let strict =
          Consumers.sitevar_reader
            ~accept:(fun json ->
              match Json.member "on" json with
              | Some (Json.Bool _) -> Ok ()
              | _ -> Error "expected a boolean 'on' field")
            ()
        in
        Alcotest.(check bool) "accept passes" true (strict c).Defense.ok;
        let wrong =
          Consumers.sitevar_reader
            ~accept:(fun _ -> Error "reader wants an integer")
            ()
        in
        Alcotest.(check bool) "accept fails" false (wrong c).Defense.ok);
    Alcotest.test_case "gatekeeper test rejects a non-project artifact" `Quick
      (fun () ->
        let _, _, compiled = compile_tree (job_tree 2048) in
        let c = List.hd compiled in
        let users = [ Cm_gatekeeper.User.make 7L ] in
        let f = Consumers.gatekeeper_project ~users () c in
        Alcotest.(check bool) "fails" false f.Defense.ok;
        Alcotest.(check bool) "says why" true
          (contains ~affix:"Gatekeeper" f.Defense.note));
    Alcotest.test_case "mobileconfig test rejects a non-translation artifact" `Quick
      (fun () ->
        let _, _, compiled = compile_tree (job_tree 2048) in
        let c = List.hd compiled in
        let f = Consumers.mobileconfig_translation () c in
        Alcotest.(check bool) "fails" false f.Defense.ok);
  ]

(* --- the registry ------------------------------------------------------- *)

let registry_tests =
  [
    Alcotest.test_case "empty registry produces no verdicts" `Quick (fun () ->
        let env = compile_tree (job_tree 2048) in
        let registry = Verify.create () in
        Alcotest.(check bool) "is_empty" true (Verify.is_empty registry);
        Alcotest.(check int) "no verdicts" 0
          (List.length (Verify.run registry (input_of env))));
    Alcotest.test_case "standard registry passes a clean cone" `Quick (fun () ->
        let env = compile_tree (job_tree 2048) in
        let registry = Verify.standard () in
        let verdicts = Verify.run registry (input_of env) in
        Alcotest.(check int) "three static checks" 3 (List.length verdicts);
        Alcotest.(check bool) "all pass" true (Defense.all_passed verdicts);
        Alcotest.(check int) "counter" 3 (Verify.checks_run registry);
        Alcotest.(check int) "no failures" 0 (Verify.failures registry));
    Alcotest.test_case "tests are scoped to their prefix" `Quick (fun () ->
        let env =
          compile_tree
            [ "jobs/a.json", {|{"v": 1}|}; "web/b.json", {|{"v": 2}|} ]
        in
        let registry = Verify.create () in
        let seen = ref [] in
        Verify.register_test registry ~name:"probe" ~prefix:"jobs/" (fun c ->
            seen := c.Compiler.config_path :: !seen;
            Defense.finding ~ok:true "ok");
        ignore (Verify.run registry (input_of env));
        Alcotest.(check (list string)) "only jobs/" [ "jobs/a.json" ] !seen);
    Alcotest.test_case "failing invariant carries a last-landed repair" `Quick
      (fun () ->
        let env = compile_tree (job_tree 99999) in
        let _, _, compiled = env in
        let c = List.hd compiled in
        let repo = Cm_vcs.Repo.create () in
        ignore
          (Cm_vcs.Repo.commit repo ~author:"t" ~message:"m" ~timestamp:1.0
             [ c.Compiler.artifact_path, Some {|{"memory_mb":2048,"name":"cache"}|} ]);
        let registry = Verify.create () in
        Verify.register_invariant registry ~name:"memory-budget" ~prefix:"jobs/"
          (fun subset ->
            let total =
              List.fold_left
                (fun acc c ->
                  match Json.member "memory_mb" c.Compiler.json with
                  | Some (Json.Int n) -> acc + n
                  | _ -> acc)
                0 subset
            in
            if total <= 8192 then Defense.finding ~ok:true "within budget"
            else
              Defense.finding ~ok:false ~at:c.Compiler.artifact_path
                (Printf.sprintf "jobs/ memory budget exceeded: %d > 8192" total));
        let verdicts = Verify.run registry (input_of ~repo env) in
        match Defense.failures verdicts with
        | [ v ] -> (
            Alcotest.(check string) "rule" "memory-budget" v.Defense.rule;
            match v.Defense.repair with
            | Some r ->
                Alcotest.(check string) "origin" "last-landed" r.Defense.origin;
                Alcotest.(check int) "repairs counted" 1
                  (Verify.repairs_suggested registry)
            | None -> Alcotest.fail "no repair attached")
        | other -> Alcotest.failf "expected 1 failure, got %d" (List.length other));
  ]

(* --- pipeline integration ---------------------------------------------- *)

let pipeline_env ?seed ?verify () =
  let tree = ST.of_alist (job_tree 1024) in
  let engine = Engine.create ~seed:(Option.value ~default:21L seed) () in
  let topo = Cm_sim.Topology.create ~regions:1 ~clusters_per_region:2 ~nodes_per_cluster:30 in
  let net = Cm_sim.Net.create engine topo in
  let zeus = Cm_zeus.Service.create net in
  let pipeline = Pipeline.create ?verify net zeus tree in
  Pipeline.bootstrap pipeline;
  Pipeline.start pipeline;
  pipeline

let propose_memory pipeline memory =
  Pipeline.propose_sync pipeline ~author:"dana"
    [
      ( "jobs/cache_job.cconf",
        Printf.sprintf
          "import \"modules/create_job.cinc\"\nexport create_job(\"cache\", %d)\n" memory );
    ]

let pipeline_tests =
  [
    Alcotest.test_case "config test bounces the change at stage verify" `Quick
      (fun () ->
        let registry = Verify.standard () in
        Verify.register_test registry ~name:"scheduler-accepts" ~prefix:"jobs/"
          (fun c ->
            match Json.member "memory_mb" c.Compiler.json with
            | Some (Json.Int n) when n > 8192 ->
                Defense.finding ~ok:false ~at:c.Compiler.artifact_path
                  (Printf.sprintf "scheduler rejects memory_mb = %d" n)
            | _ -> Defense.finding ~ok:true "scheduler accepts");
        let pipeline = pipeline_env ~verify:(Verify.run registry) () in
        (match propose_memory pipeline 99999 with
        | Pipeline.Rejected rejection -> (
            Alcotest.(check string) "stage" "verify" rejection.Defense.failed_stage;
            match Defense.failures rejection.Defense.verdicts with
            | v :: _ -> (
                Alcotest.(check string) "rule" "scheduler-accepts" v.Defense.rule;
                match v.Defense.repair with
                | Some r ->
                    Alcotest.(check string) "repair origin" "last-landed" r.Defense.origin
                | None -> Alcotest.fail "no repair attached")
            | [] -> Alcotest.fail "no failing verdict")
        | Pipeline.Landed _ -> Alcotest.fail "should have been rejected");
        (* The verdicts are surfaced on the review diff. *)
        match Review.get (Pipeline.review pipeline) 1 with
        | Some diff ->
            Alcotest.(check bool) "verify verdicts on the diff" true
              (List.exists
                 (fun v -> v.Defense.stage = "verify" && not v.Defense.passed)
                 diff.Review.test_results)
        | None -> Alcotest.fail "diff not submitted");
    Alcotest.test_case "passing verify stage lands and posts verdicts" `Quick
      (fun () ->
        let pipeline = pipeline_env ~verify:(Verify.run (Verify.standard ())) () in
        (match propose_memory pipeline 4096 with
        | Pipeline.Landed _ -> ()
        | Pipeline.Rejected r -> Alcotest.failf "rejected: %s" (Defense.summary r));
        match Review.get (Pipeline.review pipeline) 1 with
        | Some diff ->
            Alcotest.(check bool) "verify passes on the diff" true
              (List.exists
                 (fun v -> v.Defense.stage = "verify" && v.Defense.passed)
                 diff.Review.test_results)
        | None -> Alcotest.fail "diff missing");
  ]

(* --- §6.4 calibration --------------------------------------------------- *)

(* The analytic escape mix implied by default_rates: a Type I escape
   needs no declared validator, an inattentive reviewer and an
   undetectable canary spike; a Type II escape needs the cluster
   canary to miss; a Type III escape needs the latent bug not to
   manifest in the window.  The paper's observed incident split is
   42% / 36% / 22% (§6.4). *)
let fault_tests =
  [
    Alcotest.test_case "default_rates reproduce the paper's escape split" `Quick
      (fun () ->
        let r = Faults.default_rates in
        let share_iii = 1.0 -. r.Faults.share_type_i -. r.Faults.share_type_ii in
        let e1 =
          r.Faults.share_type_i
          *. (1.0 -. r.Faults.p_validator_covers)
          *. (1.0 -. r.Faults.p_reviewer_catches)
          *. (1.0 -. r.Faults.p_canary_small_catches)
        in
        let e2 = r.Faults.share_type_ii *. (1.0 -. r.Faults.p_canary_cluster_catches) in
        let e3 = share_iii *. (1.0 -. r.Faults.p_bug_manifests) in
        let total = e1 +. e2 +. e3 in
        let check name expected actual =
          Alcotest.(check bool)
            (Printf.sprintf "%s ~ %.0f%%" name (100.0 *. expected))
            true
            (Float.abs ((actual /. total) -. expected) < 0.03)
        in
        check "type I escape share" 0.42 e1;
        check "type II escape share" 0.36 e2;
        check "type III escape share" 0.22 e3);
    Alcotest.test_case "verify stage strictly lowers the analytic escape rate" `Quick
      (fun () ->
        let r = Faults.default_rates in
        let share_iii = 1.0 -. r.Faults.share_type_i -. r.Faults.share_type_ii in
        let base =
          r.Faults.share_type_i
          *. (1.0 -. r.Faults.p_validator_covers)
          *. (1.0 -. r.Faults.p_reviewer_catches)
          *. (1.0 -. r.Faults.p_canary_small_catches)
          +. (r.Faults.share_type_ii *. (1.0 -. r.Faults.p_canary_cluster_catches))
          +. (share_iii *. (1.0 -. r.Faults.p_bug_manifests))
        in
        let withv =
          r.Faults.share_type_i
          *. (1.0 -. r.Faults.p_validator_covers)
          *. (1.0 -. r.Faults.p_verify_static)
          *. (1.0 -. r.Faults.p_reviewer_catches)
          *. (1.0 -. r.Faults.p_canary_small_catches)
          +. r.Faults.share_type_ii
             *. (1.0 -. r.Faults.p_config_test_covers)
             *. (1.0 -. r.Faults.p_canary_cluster_catches)
          +. (share_iii *. (1.0 -. r.Faults.p_bug_manifests))
        in
        Alcotest.(check bool) "lower" true (withv < base);
        (* And the headline gate: strictly below 154/1500. *)
        Alcotest.(check bool) "below 154/1500" true (withv *. 1500.0 < 154.0));
    Alcotest.test_case "verify visibility drawn per the configured rates" `Quick
      (fun () ->
        let rng = Cm_sim.Rng.create 23L in
        let n = 5000 in
        let ti_seen = ref 0 and ti_total = ref 0 and tiii_seen = ref 0 in
        for _ = 1 to n do
          let injected = Faults.inject rng Faults.default_rates in
          match injected.Faults.etype with
          | Faults.Type_i ->
              if not injected.Faults.validator_visible then begin
                incr ti_total;
                if injected.Faults.verify_visible then incr ti_seen
              end
          | Faults.Type_ii -> ()
          | Faults.Type_iii -> if injected.Faults.verify_visible then incr tiii_seen
        done;
        let r = Faults.default_rates in
        Alcotest.(check bool) "type I rate" true
          (Float.abs
             ((float_of_int !ti_seen /. float_of_int !ti_total)
             -. r.Faults.p_verify_static)
          < 0.04);
        Alcotest.(check int) "type III never verify-visible" 0 !tiii_seen);
  ]

(* --- the behavior-preservation property --------------------------------- *)

(* An empty registry must be invisible: over any proposal sequence
   (good values, consumer-breaking values, syntax errors), a pipeline
   created with [~verify:(Verify.run (Verify.create ()))] lands and
   rejects exactly like one with no verify stage at all. *)
let empty_registry_property =
  let proposal =
    QCheck2.Gen.(
      oneof
        [
          map (fun m -> `Memory m) (int_range 64 16384);
          return `Broken;
        ])
  in
  QCheck2.Test.make ~name:"empty verify registry preserves pipeline behavior"
    ~count:15
    QCheck2.Gen.(list_size (int_range 1 4) proposal)
    (fun proposals ->
      let plain = pipeline_env ~seed:33L () in
      let hooked = pipeline_env ~seed:33L ~verify:(Verify.run (Verify.create ())) () in
      List.for_all
        (fun p ->
          let run pipeline =
            Pipeline.outcome_stage
              (match p with
              | `Memory m -> propose_memory pipeline m
              | `Broken ->
                  Pipeline.propose_sync pipeline ~author:"dana"
                    [ "jobs/cache_job.cconf", "export nosuchthing" ])
          in
          run plain = run hooked)
        proposals)

(* The static checks as they were when each change parsed its cone
   again ([cone_files]): the oracle of the outline property below. *)
module Reference_static = struct
  module Ast = Cm_lang.Ast

  let is_csl path =
    match Core.Source_tree.kind_of_path path with
    | Core.Source_tree.Cconf | Core.Source_tree.Cinc | Core.Source_tree.Cvalidator -> true
    | Core.Source_tree.Thrift | Core.Source_tree.Raw -> false

  let cone_files tree compiled =
    let reachable compiled =
      List.sort_uniq String.compare
        (List.concat_map (fun c -> c.Compiler.config_path :: c.Compiler.deps) compiled)
    in
    List.filter_map
      (fun path ->
        if not (is_csl path) then None
        else
          match Core.Source_tree.read tree path with
          | None -> None
          | Some source -> (
              (* Unparseable sources are the compiler's problem, not ours. *)
              match Cm_lang.Parser.parse source with
              | Error _ -> None
              | Ok file -> Some (path, file)))
      (reachable compiled)

  let csl_imports file =
    List.filter_map
      (function `Csl p -> Some p | `Thrift _ -> None)
      (Ast.imports file)

  let cycles =
    ( "dep-cycle",
        (fun ~files ->
          let adj = Hashtbl.create 16 in
          List.iter
            (fun (path, file) -> Hashtbl.replace adj path (csl_imports file))
            files;
          let state = Hashtbl.create 16 in
          let found = ref [] in
          let rec dfs stack path =
            match Hashtbl.find_opt state path with
            | Some `Done -> ()
            | Some `Active ->
                (* Back edge: the cycle is the stack suffix from [path],
                   closed by repeating [path] at the end. *)
                let rec take acc = function
                  | [] -> acc
                  | p :: rest -> if p = path then p :: acc else take (p :: acc) rest
                in
                found := (take [] stack @ [ path ]) :: !found
            | None ->
                Hashtbl.replace state path `Active;
                List.iter
                  (fun dep -> if Hashtbl.mem adj dep then dfs (path :: stack) dep)
                  (Option.value ~default:[] (Hashtbl.find_opt adj path));
                Hashtbl.replace state path `Done
          in
          List.iter (fun (path, _) -> dfs [] path) files;
          List.rev_map
            (fun cycle ->
              Core.Defense.finding ~ok:false ~at:(List.hd cycle)
                (Printf.sprintf "import cycle: %s" (String.concat " -> " cycle)))
            !found) )

  let bound_names file =
    List.filter_map
      (fun (stmt, _) ->
        match stmt with
        | Ast.Bind (name, _) | Ast.Def (name, _, _) -> Some name
        | Ast.Import _ | Ast.Import_thrift _ | Ast.Export _ -> None)
      file.Ast.stmts

  let shadowed_exports =
    ( "shadowed-export",
        (fun ~files ->
          let exports_of =
            let table = Hashtbl.create 16 in
            List.iter (fun (path, file) -> Hashtbl.replace table path (bound_names file)) files;
            fun path -> Option.value ~default:[] (Hashtbl.find_opt table path)
          in
          List.concat_map
            (fun (path, file) ->
              (* Walk the statements in evaluation order, tracking where
                 each name last came from. *)
              let env = Hashtbl.create 16 in
              let findings = ref [] in
              let flag note = findings := Core.Defense.finding ~ok:false ~at:path note :: !findings in
              List.iter
                (fun (stmt, _) ->
                  match stmt with
                  | Ast.Import dep ->
                      List.iter
                        (fun name ->
                          (match Hashtbl.find_opt env name with
                          | Some (`Import other) when other <> dep ->
                              flag
                                (Printf.sprintf
                                   "%s: import of %S shadows %S already imported from %S"
                                   path name name other)
                          | Some (`Import _) | Some `Local | None -> ());
                          Hashtbl.replace env name (`Import dep))
                        (exports_of dep)
                  | Ast.Bind (name, _) | Ast.Def (name, _, _) ->
                      (match Hashtbl.find_opt env name with
                      | Some (`Import dep) ->
                          flag
                            (Printf.sprintf "%s: local binding %S shadows the export of %S"
                               path name dep)
                      | Some `Local | None -> ());
                      Hashtbl.replace env name `Local
                  | Ast.Import_thrift _ | Ast.Export _ -> ())
                file.Ast.stmts;
              List.rev !findings)
            files) )
end

(* Random trees for the static checks: modules that import each other
   (cycles included, some by a repo-absolute "/" path), import Thrift,
   rebind and shadow a small pool of names, and sometimes fail to
   parse; configs over them. *)
let static_tree_gen =
  let open QCheck2.Gen in
  let p = Printf.sprintf in
  let modules = [| "m/a.cinc"; "m/b.cinc"; "m/c.cinc"; "m/d.cinc" |] in
  let target =
    let* m = oneofa modules in
    frequency [ 6, pure m; 1, pure ("/" ^ m); 1, pure "m/gone.cinc" ]
  in
  let name = oneofl [ "X"; "Y"; "Z" ] in
  let stmt =
    frequency
      [
        3, map (p "import \"%s\"") target;
        1, pure "import_thrift \"s.thrift\"";
        3, map (p "%s = 1") name;
        1, map (p "def %s(a) = a") name;
        1, pure "export 1";
      ]
  in
  let source =
    frequency [ 1, pure "X = = 1"; 8, map (String.concat "\n") (list_size (int_range 0 5) stmt) ]
  in
  let* module_sources = flatten_a (Array.map (fun _ -> source) modules) in
  let* configs = list_size (int_range 1 4) source in
  pure
    (("s.thrift", "struct S { 1: i32 f; }")
    :: Array.to_list (Array.map2 (fun m s -> m, s) modules module_sources)
    @ List.mapi (fun i s -> p "c/c%d.cconf" i, s) configs)

(* Each check reads over a dependency graph's outlines what it read
   over the cone's parsed files, for the cone as compiled and for a
   cone that reaches every module. *)
let static_outline_property =
  QCheck2.Test.make ~name:"static checks over outlines equal checks over parsed files"
    ~count:300 static_tree_gen (fun files ->
      let tree = ST.of_alist files in
      let compiler = Compiler.create tree in
      let compiled, _ = Compiler.compile_all compiler in
      let everything =
        List.map
          (fun c -> { c with Compiler.deps = List.map fst files @ [ "/m/a.cinc" ] })
          compiled
      in
      let findings = List.map (fun f -> f.Defense.ok, f.Defense.at, f.Defense.note) in
      List.for_all
        (fun cone ->
          let outlines = Static.cone_outlines (Compiler.depgraph compiler) cone in
          let parsed = Reference_static.cone_files tree cone in
          List.for_all2
            (fun check (name, reference) ->
              String.equal check.Static.check_name name
              && findings (check.Static.run ~outlines ~compiled:cone)
                 = findings (reference ~files:parsed))
            [ Static.cycles; Static.shadowed_exports ]
            [ Reference_static.cycles; Reference_static.shadowed_exports ])
        [ compiled; everything ])

let verify_properties =
  List.map QCheck_alcotest.to_alcotest [ empty_registry_property; static_outline_property ]

let () =
  Alcotest.run "verify"
    [
      "defense", defense_tests;
      "static", static_tests;
      "repair", repair_tests;
      "consumers", consumer_tests;
      "registry", registry_tests;
      "pipeline", pipeline_tests;
      "faults", fault_tests;
      "properties", verify_properties;
    ]
