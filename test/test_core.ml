module ST = Core.Source_tree
module Defense = Core.Defense
module Validator = Core.Validator
module Compiler = Core.Compiler
module Depgraph = Core.Depgraph
module Review = Core.Review
module Sandcastle = Core.Sandcastle
module Landing = Core.Landing_strip
module Tailer = Core.Tailer
module Canary = Core.Canary
module Pipeline = Core.Pipeline
module Mutator = Core.Mutator
module Client = Core.Client
module Faults = Core.Faults
module Engine = Cm_sim.Engine
module TValue = Cm_thrift.Value

(* The paper's Figure 2 source tree. *)
let figure2_tree () =
  ST.of_alist
    [
      ( "schemas/job.thrift",
        {|
enum JobKind { BATCH = 0, SERVICE = 1 }
struct Job {
  1: required string name;
  2: optional i32 memory_mb = 1024;
  3: list<string> args;
  4: JobKind kind = JobKind.SERVICE;
}
|} );
      ( "modules/create_job.cinc",
        {|
import_thrift "schemas/job.thrift"
def create_job(name, memory = 1024) =
  Job { name = name, memory_mb = memory, args = ["--service", name] }
|} );
      ( "jobs/cache_job.cconf",
        {|
import "modules/create_job.cinc"
export create_job("cache", 2048)
|} );
      ( "jobs/security_job.cconf",
        {|
import "modules/create_job.cinc"
export create_job("security")
|} );
      "raw/knob.json", {|{"threshold": 5}|};
    ]

let all_kinds = ST.[ Cconf; Cinc; Thrift; Cvalidator; Raw ]

let source_tree_tests =
  [
    Alcotest.test_case "kind_of_path" `Quick (fun () ->
        Alcotest.(check bool) "cconf" true (ST.kind_of_path "a/b.cconf" = ST.Cconf);
        Alcotest.(check bool) "cinc" true (ST.kind_of_path "a.cinc" = ST.Cinc);
        Alcotest.(check bool) "thrift" true (ST.kind_of_path "x.thrift" = ST.Thrift);
        Alcotest.(check bool) "validator" true
          (ST.kind_of_path "Job.thrift-cvalidator" = ST.Cvalidator);
        Alcotest.(check bool) "raw" true (ST.kind_of_path "data.json" = ST.Raw));
    Alcotest.test_case "write/read/remove" `Quick (fun () ->
        let tree = ST.create () in
        ST.write tree "a" "1";
        Alcotest.(check (option string)) "read" (Some "1") (ST.read tree "a");
        ST.remove tree "a";
        Alcotest.(check (option string)) "gone" None (ST.read tree "a"));
    Alcotest.test_case "loader resolves absolute form" `Quick (fun () ->
        let tree = ST.of_alist [ "mod/x.cinc", "X = 1" ] in
        Alcotest.(check (option string)) "plain" (Some "X = 1")
          (ST.loader tree "mod/x.cinc");
        Alcotest.(check (option string)) "leading slash" (Some "X = 1")
          (ST.loader tree "/mod/x.cinc"));
    Alcotest.test_case "paths_of_kind equals a filter of paths" `Quick (fun () ->
        let agrees step tree =
          List.iter
            (fun kind ->
              Alcotest.(check (list string)) step
                (List.filter (fun p -> ST.kind_of_path p = kind) (ST.paths tree))
                (ST.paths_of_kind tree kind))
            all_kinds
        in
        let tree =
          ST.of_alist
            [
              "z/Job.thrift-cvalidator", "def validate(cfg) = true";
              "Job.thrift-cvalidator", "def validate(cfg) = true";
              "misc/notes.cvalidator", "N = 1";
              "a.cconf", "export { a: 1 }";
              "m.cinc", "M = 1";
              "s.thrift", "struct S { 1: optional i32 n = 0; }";
              "r.json", "{}";
            ]
        in
        agrees "of_alist" tree;
        ST.write tree "b/Svc.thrift-cvalidator" "def validate(cfg) = true";
        ST.write tree "b.cconf" "export { b: 1 }";
        agrees "write" tree;
        ST.remove tree "Job.thrift-cvalidator";
        ST.remove tree "m.cinc";
        ST.remove tree "never/there.thrift-cvalidator";
        agrees "remove" tree;
        let clone = ST.copy tree in
        ST.write clone "c/Job.thrift-cvalidator" "def validate(cfg) = false";
        agrees "copy then write (clone)" clone;
        agrees "copy then write (original)" tree);
    Alcotest.test_case "a validator written to a clone stays out of the original" `Quick
      (fun () ->
        let tree = ST.of_alist [ "Job.thrift-cvalidator", "def validate(cfg) = true" ] in
        let clone = ST.copy tree in
        ST.write clone "x/Job.thrift-cvalidator" "def validate(cfg) = false";
        ST.remove clone "Job.thrift-cvalidator";
        Alcotest.(check (list string)) "original" [ "Job.thrift-cvalidator" ]
          (ST.paths_of_kind tree ST.Cvalidator);
        Alcotest.(check (list string)) "clone" [ "x/Job.thrift-cvalidator" ]
          (ST.paths_of_kind clone ST.Cvalidator));
  ]

(* A module table over no files, for validators that import nothing. *)
let no_modules () = Cm_lang.Eval.Modules.create ~loader:(fun _ -> None)

let validator_tests =
  [
    Alcotest.test_case "field_int_range" `Quick (fun () ->
        let rule = Validator.field_int_range ~field:"x" ~min:0 ~max:10 in
        Alcotest.(check bool) "pass" true
          (rule.Validator.check (TValue.Struct ("S", [ "x", TValue.Int 5 ])) = Validator.Pass);
        Alcotest.(check bool) "fail" true
          (match rule.Validator.check (TValue.Struct ("S", [ "x", TValue.Int 50 ])) with
          | Validator.Fail _ -> true
          | Validator.Pass -> false));
    Alcotest.test_case "missing field passes range rule" `Quick (fun () ->
        let rule = Validator.field_int_range ~field:"x" ~min:0 ~max:10 in
        Alcotest.(check bool) "pass" true
          (rule.Validator.check (TValue.Struct ("S", [])) = Validator.Pass));
    Alcotest.test_case "all combinator fails fast" `Quick (fun () ->
        let rule =
          Validator.all
            [
              Validator.field_nonempty_string ~field:"name";
              Validator.field_int_range ~field:"x" ~min:0 ~max:1;
            ]
        in
        match
          rule.Validator.check
            (TValue.Struct ("S", [ "name", TValue.Str ""; "x", TValue.Int 9 ]))
        with
        | Validator.Fail message ->
            Alcotest.(check bool) "first failure reported" true
              (String.length message > 0)
        | Validator.Pass -> Alcotest.fail "expected failure");
    Alcotest.test_case "registry per type" `Quick (fun () ->
        let registry = Validator.create () in
        Validator.register registry ~type_name:"Job"
          (Validator.field_int_range ~field:"memory_mb" ~min:1 ~max:65536);
        Alcotest.(check bool) "pass other type" true
          (Validator.validate registry ~type_name:"Other" (TValue.Struct ("Other", []))
          = Validator.Pass);
        Alcotest.(check bool) "fail job" true
          (match
             Validator.validate registry ~type_name:"Job"
               (TValue.Struct ("Job", [ "memory_mb", TValue.Int 0 ]))
           with
          | Validator.Fail _ -> true
          | Validator.Pass -> false));
    Alcotest.test_case "CSL source validator" `Quick (fun () ->
        let source = "def validate(cfg) = cfg.memory_mb >= 64" in
        match Validator.of_source ~modules:(no_modules ()) ~type_name:"Job" ~source with
        | Error e -> Alcotest.fail e
        | Ok rule ->
            Alcotest.(check bool) "pass" true
              (rule.Validator.check (TValue.Struct ("Job", [ "memory_mb", TValue.Int 128 ]))
              = Validator.Pass);
            Alcotest.(check bool) "fail" true
              (match
                 rule.Validator.check (TValue.Struct ("Job", [ "memory_mb", TValue.Int 8 ]))
               with
              | Validator.Fail _ -> true
              | Validator.Pass -> false));
    Alcotest.test_case "CSL validator returning message" `Quick (fun () ->
        let source =
          {|def validate(cfg) = if cfg.memory_mb < 64 then "too little memory" else ""|}
        in
        match Validator.of_source ~modules:(no_modules ()) ~type_name:"Job" ~source with
        | Error e -> Alcotest.fail e
        | Ok rule -> (
            match
              rule.Validator.check (TValue.Struct ("Job", [ "memory_mb", TValue.Int 8 ]))
            with
            | Validator.Fail "too little memory" -> ()
            | Validator.Fail other -> Alcotest.failf "wrong message %s" other
            | Validator.Pass -> Alcotest.fail "expected failure"));
    Alcotest.test_case "validator source without validate rejected" `Quick (fun () ->
        match Validator.of_source ~modules:(no_modules ()) ~type_name:"J" ~source:"x = 1" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
  ]

let compiler_tests =
  [
    Alcotest.test_case "figure 2 compiles" `Quick (fun () ->
        let compiler = Compiler.create (figure2_tree ()) in
        match Compiler.compile compiler "jobs/cache_job.cconf" with
        | Error e -> Alcotest.failf "compile: %a" Compiler.pp_error e
        | Ok compiled ->
            Alcotest.(check string) "artifact path" "jobs/cache_job.json"
              compiled.Compiler.artifact_path;
            Alcotest.(check (option string)) "type" (Some "Job") compiled.Compiler.type_name;
            Alcotest.(check bool) "schema hash" true (compiled.Compiler.schema_hash <> None);
            Alcotest.(check string) "json"
              {|{"name":"cache","memory_mb":2048,"args":["--service","cache"],"kind":"SERVICE"}|}
              compiled.Compiler.json_text;
            Alcotest.(check (list string)) "deps"
              [ "modules/create_job.cinc"; "schemas/job.thrift" ]
              compiled.Compiler.deps);
    Alcotest.test_case "compile_all covers cconf and raw" `Quick (fun () ->
        let compiler = Compiler.create (figure2_tree ()) in
        let compiled, errors = Compiler.compile_all compiler in
        Alcotest.(check int) "no errors" 0 (List.length errors);
        Alcotest.(check int) "3 configs" 3 (List.length compiled));
    Alcotest.test_case "eval error stage" `Quick (fun () ->
        let tree = ST.of_alist [ "bad.cconf", "export nosuch" ] in
        match Compiler.compile (Compiler.create tree) "bad.cconf" with
        | Error e -> Alcotest.(check string) "stage" "eval" (Compiler.stage_name e.Compiler.stage)
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "schema error stage" `Quick (fun () ->
        let tree = figure2_tree () in
        ST.write tree "jobs/broken.cconf"
          {|
import_thrift "schemas/job.thrift"
export Job { name = "x", memory_mb = "lots" }
|};
        match Compiler.compile (Compiler.create tree) "jobs/broken.cconf" with
        | Error e ->
            Alcotest.(check string) "stage" "schema" (Compiler.stage_name e.Compiler.stage)
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "validation error stage (registered rule)" `Quick (fun () ->
        let validators = Validator.create () in
        Validator.register validators ~type_name:"Job"
          (Validator.field_int_range ~field:"memory_mb" ~min:1 ~max:4096);
        let tree = figure2_tree () in
        ST.write tree "jobs/huge.cconf"
          {|
import "modules/create_job.cinc"
export create_job("huge", 999999)
|};
        match Compiler.compile (Compiler.create ~validators tree) "jobs/huge.cconf" with
        | Error e ->
            Alcotest.(check string) "stage" "validation"
              (Compiler.stage_name e.Compiler.stage)
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "source validator discovered from tree" `Quick (fun () ->
        let tree = figure2_tree () in
        ST.write tree "schemas/Job.thrift-cvalidator"
          "def validate(cfg) = cfg.memory_mb <= 4096";
        ST.write tree "jobs/huge.cconf"
          {|
import "modules/create_job.cinc"
export create_job("huge", 999999)
|};
        let compiler = Compiler.create tree in
        (match Compiler.compile compiler "jobs/huge.cconf" with
        | Error e ->
            Alcotest.(check string) "stage" "validation"
              (Compiler.stage_name e.Compiler.stage)
        | Ok _ -> Alcotest.fail "expected error");
        (* The validator guards every config of the type, §3.1. *)
        match Compiler.compile compiler "jobs/cache_job.cconf" with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "cache job should pass: %a" Compiler.pp_error e);
    Alcotest.test_case "raw json must parse" `Quick (fun () ->
        let tree = ST.of_alist [ "bad.json", "{oops" ] in
        match Compiler.compile (Compiler.create tree) "bad.json" with
        | Error e -> Alcotest.(check string) "stage" "parse" (Compiler.stage_name e.Compiler.stage)
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "untyped export allowed" `Quick (fun () ->
        let tree = ST.of_alist [ "plain.cconf", "export { a: 1, b: [2, 3] }" ] in
        match Compiler.compile (Compiler.create tree) "plain.cconf" with
        | Ok compiled ->
            Alcotest.(check (option string)) "no type" None compiled.Compiler.type_name;
            Alcotest.(check string) "json" {|{"a":1,"b":[2,3]}|} compiled.Compiler.json_text
        | Error e -> Alcotest.failf "compile: %a" Compiler.pp_error e);
    Alcotest.test_case "each module is evaluated once per collect" `Quick (fun () ->
        (* Five configs share one module over a base module; a sixth
           and the validator import the base alone. *)
        let tree =
          ST.of_alist
            ([
               "modules/base.cinc", "BASE = 10";
               "modules/shared.cinc", "import \"modules/base.cinc\"\nSHARED = BASE + 1";
               "jobs/base_only.cconf", "import \"modules/base.cinc\"\nexport { b: BASE }";
               "Cfg.thrift-cvalidator", "import \"modules/base.cinc\"\ndef validate(cfg) = BASE > 0";
             ]
            @ List.init 5 (fun i ->
                  ( Printf.sprintf "jobs/c%d.cconf" i,
                    Printf.sprintf "import \"modules/shared.cinc\"\nexport { v: SHARED + %d }" i )))
        in
        let compiler = Compiler.create tree in
        let evaluations () = Compiler.module_evaluations compiler in
        let oks, errors = Compiler.compile_all compiler in
        Alcotest.(check (pair int int)) "all compiled" (6, 0) (List.length oks, List.length errors);
        Alcotest.(check int) "base and shared, once each" 2 (evaluations ());
        ignore (Compiler.compile_all compiler);
        Alcotest.(check int) "all hits evaluate nothing" 2 (evaluations ());
        ST.write tree "modules/shared.cinc" "import \"modules/base.cinc\"\nSHARED = BASE + 2";
        let oks, _ = Compiler.compile_affected compiler ~changed:[ "modules/shared.cinc" ] in
        Alcotest.(check int) "the five importers recompile" 5 (List.length oks);
        Alcotest.(check int) "base and shared again, once each" 4 (evaluations ()));
    Alcotest.test_case "a source validator can import a module" `Quick (fun () ->
        let tree = figure2_tree () in
        ST.write tree "modules/limits.cinc" "MIN_MEMORY = 1536";
        ST.write tree "schemas/Job.thrift-cvalidator"
          "import \"modules/limits.cinc\"\n\
           def validate(cfg) = if cfg.memory_mb < MIN_MEMORY then \"below MIN_MEMORY\" else \"\"";
        let compiler = Compiler.create tree in
        (match Compiler.compile compiler "jobs/cache_job.cconf" with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "cache_job: %a" Compiler.pp_error e);
        (match Compiler.compile compiler "jobs/security_job.cconf" with
        | Error { Compiler.stage = Compiler.Validation; message = "below MIN_MEMORY"; _ } -> ()
        | Error e -> Alcotest.failf "security_job: wrong error %a" Compiler.pp_error e
        | Ok _ -> Alcotest.fail "security_job (1024 MB) should fail the validator");
        let _, errors = Compiler.compile_all compiler in
        Alcotest.(check (list string)) "compile_all agrees" [ "jobs/security_job.cconf" ]
          (List.map (fun e -> e.Compiler.at) errors));
  ]

let depgraph_tests =
  [
    Alcotest.test_case "paper's app_port example" `Quick (fun () ->
        let tree =
          ST.of_alist
            [
              "app_port.cinc", "APP_PORT = 8089";
              "app.cconf", "import \"app_port.cinc\"\nexport { port: APP_PORT }";
              "firewall.cconf", "import \"app_port.cinc\"\nexport { allow: APP_PORT }";
              "unrelated.cconf", "export { x: 1 }";
            ]
        in
        let dep = Depgraph.of_tree tree in
        Alcotest.(check (list string)) "both recompiled"
          [ "app.cconf"; "firewall.cconf" ]
          (Depgraph.affected_configs dep [ "app_port.cinc" ]);
        Alcotest.(check (list string)) "dependents"
          [ "app.cconf"; "firewall.cconf" ]
          (Depgraph.dependents dep "app_port.cinc"));
    Alcotest.test_case "changed config recompiles itself" `Quick (fun () ->
        let tree = ST.of_alist [ "a.cconf", "export { x: 1 }" ] in
        let dep = Depgraph.of_tree tree in
        Alcotest.(check (list string)) "self" [ "a.cconf" ]
          (Depgraph.affected_configs dep [ "a.cconf" ]));
    Alcotest.test_case "transitive chains" `Quick (fun () ->
        let tree =
          ST.of_alist
            [
              "base.cinc", "B = 1";
              "mid.cinc", "import \"base.cinc\"\nM = B + 1";
              "top.cconf", "import \"mid.cinc\"\nexport { m: M }";
            ]
        in
        let dep = Depgraph.of_tree tree in
        Alcotest.(check (list string)) "base affects top" [ "top.cconf" ]
          (Depgraph.affected_configs dep [ "base.cinc" ]);
        Alcotest.(check (list string)) "closure"
          [ "base.cinc"; "mid.cinc" ]
          (Depgraph.transitive_deps dep "top.cconf"));
    Alcotest.test_case "update_file rewires edges" `Quick (fun () ->
        let tree =
          ST.of_alist
            [ "a.cinc", "A = 1"; "b.cinc", "B = 2"; "c.cconf", "import \"a.cinc\"\nexport { a: A }" ]
        in
        let dep = Depgraph.of_tree tree in
        ST.write tree "c.cconf" "import \"b.cinc\"\nexport { b: B }";
        Depgraph.update_file dep tree "c.cconf";
        Alcotest.(check (list string)) "a no longer affects" []
          (Depgraph.affected_configs dep [ "a.cinc" ]);
        Alcotest.(check (list string)) "b affects" [ "c.cconf" ]
          (Depgraph.affected_configs dep [ "b.cinc" ]));
    Alcotest.test_case "diamond imports yield the config once" `Quick (fun () ->
        let tree =
          ST.of_alist
            [
              "base.cinc", "B = 1";
              "left.cinc", "import \"base.cinc\"\nL = B + 1";
              "right.cinc", "import \"base.cinc\"\nR = B + 2";
              "top.cconf", "import \"left.cinc\"\nimport \"right.cinc\"\nexport { s: L + R }";
            ]
        in
        let dep = Depgraph.of_tree tree in
        Alcotest.(check (list string)) "no duplicates" [ "top.cconf" ]
          (Depgraph.affected_configs dep [ "base.cinc" ]));
    Alcotest.test_case "cinc shared with a validator affects every config" `Quick (fun () ->
        (* limits.cinc feeds both a regular config and a type validator.
           Validators apply by type, not by import edge, so once the
           walk reaches a validator source every .cconf is suspect. *)
        let tree =
          ST.of_alist
            [
              "limits.cinc", "MAX_MEM = 4096";
              "schemas/Job.thrift-cvalidator",
              "import \"limits.cinc\"\ndef validate(cfg) = cfg.memory_mb <= MAX_MEM";
              "a.cconf", "import \"limits.cinc\"\nexport { m: MAX_MEM }";
              "b.cconf", "export { x: 1 }";
            ]
        in
        let dep = Depgraph.of_tree tree in
        Alcotest.(check (list string)) "all configs affected" [ "a.cconf"; "b.cconf" ]
          (Depgraph.affected_configs dep [ "limits.cinc" ]);
        Alcotest.(check (list string)) "validator edit affects all"
          [ "a.cconf"; "b.cconf" ]
          (Depgraph.affected_configs dep [ "schemas/Job.thrift-cvalidator" ]));
    Alcotest.test_case "deleting an import still invalidates dependents" `Quick (fun () ->
        let tree =
          ST.of_alist
            [ "a.cinc", "A = 1"; "c.cconf", "import \"a.cinc\"\nexport { a: A }" ]
        in
        let dep = Depgraph.of_tree tree in
        ST.remove tree "a.cinc";
        Depgraph.update_file dep tree "a.cinc";
        Alcotest.(check (list string)) "dependent must recompile" [ "c.cconf" ]
          (Depgraph.affected_configs dep [ "a.cinc" ]));
    Alcotest.test_case "copy is independent of the original" `Quick (fun () ->
        let tree =
          ST.of_alist
            [ "a.cinc", "A = 1"; "c.cconf", "import \"a.cinc\"\nexport { a: A }" ]
        in
        let dep = Depgraph.of_tree tree in
        let clone = Depgraph.copy dep in
        ST.write tree "c.cconf" "export { x: 2 }";
        Depgraph.update_file clone tree "c.cconf";
        Alcotest.(check (list string)) "clone rewired" []
          (Depgraph.affected_configs clone [ "a.cinc" ]);
        Alcotest.(check (list string)) "original untouched" [ "c.cconf" ]
          (Depgraph.affected_configs dep [ "a.cinc" ]));
  ]

let review_tests =
  [
    Alcotest.test_case "approve by peer" `Quick (fun () ->
        let review = Review.create () in
        let id = Review.submit review ~author:"alice" ~title:"t" ~base:None [] in
        Alcotest.(check bool) "ok" true (Review.approve review id ~reviewer:"bob" = Ok ()));
    Alcotest.test_case "self review forbidden" `Quick (fun () ->
        let review = Review.create () in
        let id = Review.submit review ~author:"alice" ~title:"t" ~base:None [] in
        Alcotest.(check bool) "rejected" true
          (Review.approve review id ~reviewer:"alice" <> Ok ()));
    Alcotest.test_case "double approve fails" `Quick (fun () ->
        let review = Review.create () in
        let id = Review.submit review ~author:"a" ~title:"t" ~base:None [] in
        ignore (Review.approve review id ~reviewer:"b");
        Alcotest.(check bool) "second fails" true
          (Review.approve review id ~reviewer:"c" <> Ok ()));
    Alcotest.test_case "test results posted" `Quick (fun () ->
        let review = Review.create () in
        let id = Review.submit review ~author:"a" ~title:"t" ~base:None [] in
        Review.post_test_result review id ~name:"ci" ~passed:true ~detail:"ok";
        let diff = Option.get (Review.get review id) in
        Alcotest.(check int) "one result" 1 (List.length diff.Review.test_results));
    Alcotest.test_case "pending excludes decided" `Quick (fun () ->
        let review = Review.create () in
        let a = Review.submit review ~author:"a" ~title:"1" ~base:None [] in
        let _b = Review.submit review ~author:"a" ~title:"2" ~base:None [] in
        ignore (Review.reject review a ~reviewer:"r" ~reason:"nope");
        Alcotest.(check int) "one pending" 1 (List.length (Review.pending review)));
    Alcotest.test_case "batched verdicts post in order in linear allocation" `Quick (fun () ->
        (* A Sandcastle report and a verify report of [n] verdicts each,
           posted as a change posts them: the minor words spent grow
           with [n], not with its square. *)
        let post n =
          let verdicts from =
            List.init n (fun i -> Defense.pass ~stage:"verify" ~rule:(string_of_int (from + i)) "ok")
          in
          let report = verdicts 0 and verify_report = verdicts n in
          let review = Review.create () in
          let id = Review.submit review ~author:"a" ~title:"t" ~base:None [] in
          let before = Gc.minor_words () in
          Sandcastle.post_to_review review id report;
          Review.post_verdicts review id verify_report;
          let words = Gc.minor_words () -. before in
          let posted = (Option.get (Review.get review id)).Review.test_results in
          Alcotest.(check (list string)) "in posting order"
            (List.init (2 * n) string_of_int)
            (List.map (fun v -> v.Defense.rule) posted);
          words
        in
        let small = post 1_000 and large = post 10_000 in
        Alcotest.(check bool)
          (Printf.sprintf "10x the verdicts: %.0f -> %.0f minor words" small large)
          true
          (large <= 12.0 *. small));
  ]

let compiled_of tree path =
  match Compiler.compile (Compiler.create tree) path with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile: %a" Compiler.pp_error e

let sandcastle_tests =
  [
    Alcotest.test_case "healthy artifacts pass defaults" `Quick (fun () ->
        let sandcastle = Sandcastle.create () in
        let tree = figure2_tree () in
        let report = Sandcastle.run sandcastle [ compiled_of tree "jobs/cache_job.cconf" ] in
        Alcotest.(check bool) "passed" true (Sandcastle.passed report));
    Alcotest.test_case "oversize artifact fails" `Quick (fun () ->
        let sandcastle = Sandcastle.create () in
        let tree =
          ST.of_alist [ "big.cconf", Printf.sprintf "export { blob: \"%s\" }"
                          (String.make 1_100_000 'x') ]
        in
        let report = Sandcastle.run sandcastle [ compiled_of tree "big.cconf" ] in
        Alcotest.(check bool) "failed" false (Sandcastle.passed report));
    Alcotest.test_case "empty export fails" `Quick (fun () ->
        let sandcastle = Sandcastle.create () in
        let tree = ST.of_alist [ "empty.cconf", "export {}" ] in
        let report = Sandcastle.run sandcastle [ compiled_of tree "empty.cconf" ] in
        Alcotest.(check bool) "failed" false (Sandcastle.passed report));
    Alcotest.test_case "custom check runs" `Quick (fun () ->
        let sandcastle = Sandcastle.create ~with_defaults:false () in
        Sandcastle.add_check sandcastle
          {
            Sandcastle.check_name = "always-no";
            run = (fun _ -> Defense.finding ~ok:false "nope");
          };
        let report = Sandcastle.run sandcastle [] in
        Alcotest.(check bool) "failed" false (Sandcastle.passed report));
  ]

let landing_tests =
  [
    Alcotest.test_case "serialized commits in FCFS order" `Quick (fun () ->
        let engine = Engine.create () in
        let repo = Cm_vcs.Repo.create () in
        let landing = Landing.create engine repo in
        let done_order = ref [] in
        List.iter
          (fun (name, path) ->
            Landing.submit landing
              { Landing.author = name; message = name; base = None;
                changes = [ path, Some name ] }
              ~on_result:(fun result ->
                match result with
                | Landing.Committed _ -> done_order := name :: !done_order
                | Landing.Conflict _ -> Alcotest.fail "unexpected conflict"))
          [ "first", "a"; "second", "b"; "third", "c" ];
        Engine.run engine;
        Alcotest.(check (list string)) "order" [ "first"; "second"; "third" ]
          (List.rev !done_order);
        Alcotest.(check int) "3 commits" 3 (Landing.committed landing));
    Alcotest.test_case "true conflict rejected without blocking others" `Quick (fun () ->
        let engine = Engine.create () in
        let repo = Cm_vcs.Repo.create () in
        let base0 = None in
        let landing = Landing.create engine repo in
        let outcomes = ref [] in
        let submit name base changes =
          Landing.submit landing
            { Landing.author = name; message = name; base; changes }
            ~on_result:(fun result -> outcomes := (name, result) :: !outcomes)
        in
        submit "w1" base0 [ "shared", Some "v1" ];
        Engine.run engine;
        let head1 = Cm_vcs.Repo.head repo in
        (* w2 edits "shared" against the stale base: true conflict.
           w3 edits another file against the stale base: fine. *)
        submit "w2" base0 [ "shared", Some "v2" ];
        submit "w3" base0 [ "other", Some "x" ];
        Engine.run engine;
        (match List.assoc "w2" !outcomes with
        | Landing.Conflict [ "shared" ] -> ()
        | _ -> Alcotest.fail "expected conflict on shared");
        (match List.assoc "w3" !outcomes with
        | Landing.Committed _ -> ()
        | _ -> Alcotest.fail "expected w3 to land");
        Alcotest.(check bool) "head moved" true (Cm_vcs.Repo.head repo <> head1));
    Alcotest.test_case "direct mode pays retries under contention" `Quick (fun () ->
        let engine = Engine.create () in
        let repo = Cm_vcs.Repo.create () in
        let landing = Landing.create ~mode:Landing.Direct engine repo in
        let landed = ref 0 in
        (* Ten committers race from the same base on distinct files. *)
        for i = 1 to 10 do
          Landing.submit landing
            { Landing.author = Printf.sprintf "e%d" i; message = "m"; base = None;
              changes = [ Printf.sprintf "f%d" i, Some "v" ] }
            ~on_result:(fun result ->
              match result with
              | Landing.Committed _ -> incr landed
              | Landing.Conflict _ -> Alcotest.fail "no true conflicts here")
        done;
        Engine.run engine;
        Alcotest.(check int) "all land eventually" 10 !landed;
        Alcotest.(check bool) "retries happened" true (Landing.retries landing > 0));
    Alcotest.test_case "landing mode has no retries for the same race" `Quick (fun () ->
        let engine = Engine.create () in
        let repo = Cm_vcs.Repo.create () in
        let landing = Landing.create engine repo in
        for i = 1 to 10 do
          Landing.submit landing
            { Landing.author = Printf.sprintf "e%d" i; message = "m"; base = None;
              changes = [ Printf.sprintf "f%d" i, Some "v" ] }
            ~on_result:(fun _ -> ())
        done;
        Engine.run engine;
        Alcotest.(check int) "no retries" 0 (Landing.retries landing);
        Alcotest.(check int) "all landed" 10 (Landing.committed landing));
  ]

let tailer_tests =
  [
    Alcotest.test_case "tailer publishes committed artifacts" `Quick (fun () ->
        let engine = Engine.create () in
        let topo = Cm_sim.Topology.create ~regions:1 ~clusters_per_region:1 ~nodes_per_cluster:20 in
        let net = Cm_sim.Net.create engine topo in
        let zeus = Cm_zeus.Service.create net in
        let repo = Cm_vcs.Repo.create () in
        let tailer = Tailer.create ~poll_interval:2.0 engine repo zeus in
        Tailer.start tailer;
        ignore
          (Cm_vcs.Repo.commit repo ~author:"a" ~message:"m" ~timestamp:0.0
             [ "x.json", Some "{\"v\":1}"; "x.cconf", Some "export { v: 1 }" ]);
        Engine.run_for engine 30.0;
        (* Only the artifact, not the source, is distributed. *)
        Alcotest.(check int) "one write" 1 (Tailer.writes_issued tailer);
        Alcotest.(check (option string)) "in zeus" (Some "{\"v\":1}")
          (Cm_zeus.Service.committed_value zeus "x.json");
        Tailer.stop tailer);
    Alcotest.test_case "no new commits, no writes" `Quick (fun () ->
        let engine = Engine.create () in
        let topo = Cm_sim.Topology.create ~regions:1 ~clusters_per_region:1 ~nodes_per_cluster:20 in
        let net = Cm_sim.Net.create engine topo in
        let zeus = Cm_zeus.Service.create net in
        let repo = Cm_vcs.Repo.create () in
        let tailer = Tailer.create engine repo zeus in
        Tailer.start tailer;
        Engine.run_for engine 60.0;
        Alcotest.(check int) "zero" 0 (Tailer.writes_issued tailer);
        Tailer.stop tailer);
  ]

let canary_env () =
  let engine = Engine.create ~seed:11L () in
  let topo =
    Cm_sim.Topology.create ~regions:2 ~clusters_per_region:2 ~nodes_per_cluster:100
  in
  engine, topo

let canary_tests =
  [
    Alcotest.test_case "healthy config passes all phases" `Quick (fun () ->
        let engine, topo = canary_env () in
        match Canary.run_sync engine topo ~sampler:Pipeline.healthy_sampler with
        | Canary.Passed -> ()
        | Canary.Failed f -> Alcotest.failf "failed: %s %s" f.Canary.failed_phase f.Canary.detail);
    Alcotest.test_case "type I error spike caught in small phase" `Quick (fun () ->
        let engine, topo = canary_env () in
        let rng = Cm_sim.Rng.create 3L in
        let sampler = Faults.type_i_sampler rng ~detectable:true in
        match Canary.run_sync engine topo ~sampler with
        | Canary.Failed f ->
            Alcotest.(check string) "phase 1" "p1-20-servers" f.Canary.failed_phase
        | Canary.Passed -> Alcotest.fail "should have failed");
    Alcotest.test_case "type II load issue only caught at cluster scale (6.4 incident)"
      `Quick (fun () ->
        let engine, topo = canary_env () in
        let rng = Cm_sim.Rng.create 4L in
        let sampler = Faults.type_ii_sampler rng ~detectable:true in
        match Canary.run_sync engine topo ~sampler with
        | Canary.Failed f ->
            Alcotest.(check string) "phase 2" "p2-cluster" f.Canary.failed_phase
        | Canary.Passed -> Alcotest.fail "should have failed");
    Alcotest.test_case "type III crash aborts quickly" `Quick (fun () ->
        let engine, topo = canary_env () in
        let rng = Cm_sim.Rng.create 5L in
        let sampler = Faults.type_iii_sampler rng ~manifests:true in
        let start = Engine.now engine in
        match Canary.run_sync engine topo ~sampler with
        | Canary.Failed f ->
            Alcotest.(check string) "no crashes check" "no crashes" f.Canary.failed_check;
            Alcotest.(check bool) "fast abort" true (Engine.now engine -. start < 60.0)
        | Canary.Passed -> Alcotest.fail "should have failed");
    Alcotest.test_case "undetectable type II escapes the canary" `Quick (fun () ->
        let engine, topo = canary_env () in
        let rng = Cm_sim.Rng.create 6L in
        let sampler = Faults.type_ii_sampler rng ~detectable:false in
        match Canary.run_sync engine topo ~sampler with
        | Canary.Passed -> () (* it ships, and becomes a production incident *)
        | Canary.Failed _ -> Alcotest.fail "undetectable error should slip through");
  ]

(* --- pipeline end-to-end --------------------------------------------- *)

let pipeline_env ?validators () =
  let tree = figure2_tree () in
  let engine = Engine.create ~seed:21L () in
  let topo =
    Cm_sim.Topology.create ~regions:2 ~clusters_per_region:2 ~nodes_per_cluster:60
  in
  let net = Cm_sim.Net.create engine topo in
  let zeus = Cm_zeus.Service.create net in
  let pipeline = Pipeline.create ?validators net zeus tree in
  Pipeline.bootstrap pipeline;
  Pipeline.start pipeline;
  engine, zeus, pipeline

let cache_job_v2 =
  {|
import "modules/create_job.cinc"
export create_job("cache", 4096)
|}

(* The Figure 2 shared module, with [memory] as create_job's default. *)
let create_job_module memory =
  Printf.sprintf
    {|
import_thrift "schemas/job.thrift"
def create_job(name, memory = %d) =
  Job { name = name, memory_mb = memory, args = ["--service", name] }
|}
    memory

let pipeline_tests =
  [
    Alcotest.test_case "good change lands and reaches clients" `Quick (fun () ->
        let engine, zeus, pipeline = pipeline_env () in
        let client = Client.create zeus ~node:40 in
        Client.want client "jobs/cache_job.json";
        Engine.run_for engine 10.0;
        let outcome =
          Pipeline.propose_sync pipeline ~author:"dana"
            [ "jobs/cache_job.cconf", cache_job_v2 ]
        in
        Alcotest.(check string) "landed" "landed" (Pipeline.outcome_stage outcome);
        Engine.run_for engine 30.0;
        (match Client.get_json client "jobs/cache_job.json" with
        | Some json ->
            Alcotest.(check bool) "memory updated" true
              (Cm_json.Value.member "memory_mb" json = Some (Cm_json.Value.Int 4096))
        | None -> Alcotest.fail "client missing config");
        Alcotest.(check int) "landed count" 1 (Pipeline.landed_count pipeline));
    Alcotest.test_case "compile error rejected before review" `Quick (fun () ->
        let _, _, pipeline = pipeline_env () in
        let outcome =
          Pipeline.propose_sync pipeline ~author:"dana"
            [ "jobs/cache_job.cconf", "export nosuchthing" ]
        in
        Alcotest.(check string) "compile" "compile" (Pipeline.outcome_stage outcome));
    Alcotest.test_case "a path the repository cannot hold is rejected at compile" `Quick
      (fun () ->
        let _, _, pipeline = pipeline_env () in
        let head = Cm_vcs.Repo.head (Pipeline.repo pipeline) in
        List.iter
          (fun path ->
            let outcome =
              Pipeline.propose_sync pipeline ~author:"dana" ~skip_canary:true
                [ "jobs/cache_job.cconf", cache_job_v2; path, "{}" ]
            in
            Alcotest.(check string) (String.escaped path) "compile"
              (Pipeline.outcome_stage outcome))
          [ "raw/bad\nname.json"; "raw/a\001b.json"; "raw//x.json"; "/raw/x.json" ];
        Alcotest.(check bool) "nothing landed" true
          (Cm_vcs.Repo.head (Pipeline.repo pipeline) = head));
    Alcotest.test_case "a malformed number is a compile error, not an exception" `Quick
      (fun () ->
        let tree = figure2_tree () in
        ST.write tree "jobs/big.cconf" "export 99999999999999999999";
        ST.write tree "raw/bad.json" "[1e+]";
        let _, errors = Compiler.compile_all (Compiler.create tree) in
        Alcotest.(check (list (pair string string))) "errors"
          [ "jobs/big.cconf", "eval"; "raw/bad.json", "parse" ]
          (List.map (fun e -> e.Compiler.at, Compiler.stage_name e.Compiler.stage) errors);
        let _, _, pipeline = pipeline_env () in
        List.iter
          (fun (path, source) ->
            Alcotest.(check string) path "compile"
              (Pipeline.outcome_stage
                 (Pipeline.propose_sync pipeline ~author:"dana" [ path, source ])))
          [ "raw/bad.json", "[1e+]"; "jobs/cache_job.cconf", "export 1.5e+" ]);
    Alcotest.test_case "validator rejects at compile stage" `Quick (fun () ->
        let validators = Validator.create () in
        Validator.register validators ~type_name:"Job"
          (Validator.field_int_range ~field:"memory_mb" ~min:1 ~max:4096);
        let _, _, pipeline = pipeline_env ~validators () in
        let outcome =
          Pipeline.propose_sync pipeline ~author:"dana"
            [ "jobs/cache_job.cconf",
              "import \"modules/create_job.cinc\"\nexport create_job(\"cache\", 99999)" ]
        in
        Alcotest.(check string) "compile" "compile" (Pipeline.outcome_stage outcome));
    Alcotest.test_case "editing a shared module recompiles importers" `Quick (fun () ->
        let engine, zeus, pipeline = pipeline_env () in
        let client = Client.create zeus ~node:41 in
        Client.want client "jobs/cache_job.json";
        Client.want client "jobs/security_job.json";
        Engine.run_for engine 10.0;
        (* Change the default args in the shared module: both job
           configs must be recompiled and redistributed in one commit. *)
        let outcome =
          Pipeline.propose_sync pipeline ~author:"dana"
            [ "modules/create_job.cinc",
              {|
import_thrift "schemas/job.thrift"
def create_job(name, memory = 1024) =
  Job { name = name, memory_mb = memory, args = ["--service2", name] }
|} ]
        in
        Alcotest.(check string) "landed" "landed" (Pipeline.outcome_stage outcome);
        Engine.run_for engine 30.0;
        List.iter
          (fun path ->
            match Client.get_json client path with
            | Some json ->
                let args = Option.get (Cm_json.Value.member "args" json) in
                Alcotest.(check bool)
                  (path ^ " recompiled")
                  true
                  (Cm_json.Value.index 0 args = Some (Cm_json.Value.String "--service2"))
            | None -> Alcotest.failf "missing %s" path)
          [ "jobs/cache_job.json"; "jobs/security_job.json" ]);
    Alcotest.test_case "bad canary rolls back" `Quick (fun () ->
        let _, _, pipeline = pipeline_env () in
        let rng = Cm_sim.Rng.create 8L in
        let outcome =
          Pipeline.propose_sync pipeline ~author:"dana"
            ~sampler:(Faults.type_i_sampler rng ~detectable:true)
            [ "jobs/cache_job.cconf", cache_job_v2 ]
        in
        Alcotest.(check string) "canary" "canary" (Pipeline.outcome_stage outcome);
        (* Tree unchanged: the change never landed. *)
        let current =
          Option.get (ST.read (Pipeline.tree pipeline) "jobs/cache_job.cconf")
        in
        Alcotest.(check bool) "rolled back" false (current = cache_job_v2));
    Alcotest.test_case "skip_canary lands directly" `Quick (fun () ->
        let _, _, pipeline = pipeline_env () in
        let outcome =
          Pipeline.propose_sync pipeline ~author:"tool" ~skip_canary:true
            [ "raw/knob.json", {|{"threshold": 9}|} ]
        in
        Alcotest.(check string) "landed" "landed" (Pipeline.outcome_stage outcome));
    Alcotest.test_case "emergency rollback restores the previous version" `Quick (fun () ->
        let engine, zeus, pipeline = pipeline_env () in
        let client = Client.create zeus ~node:45 in
        Client.want client "raw/knob.json";
        Engine.run_for engine 10.0;
        (* Land a bad value, then roll it back. *)
        let outcome =
          Pipeline.propose_sync pipeline ~author:"dana" ~skip_canary:true
            [ "raw/knob.json", {|{"threshold": 9999}|} ]
        in
        Alcotest.(check string) "bad landed" "landed" (Pipeline.outcome_stage outcome);
        let mutator = Mutator.create pipeline in
        let result = ref None in
        Mutator.rollback mutator ~tool:"oncall" ~path:"raw/knob.json"
          ~on_done:(fun o -> result := Some o);
        let rec drive () =
          match !result with
          | Some o -> o
          | None -> if Engine.step engine then drive () else Alcotest.fail "drained"
        in
        Alcotest.(check string) "rollback landed" "landed" (Pipeline.outcome_stage (drive ()));
        Alcotest.(check (option string)) "tree restored" (Some {|{"threshold": 5}|})
          (ST.read (Pipeline.tree pipeline) "raw/knob.json");
        Engine.run_for engine 30.0;
        match Client.get_json client "raw/knob.json" with
        | Some json ->
            Alcotest.(check bool) "fleet restored" true
              (Cm_json.Value.member "threshold" json = Some (Cm_json.Value.Int 5))
        | None -> Alcotest.fail "client missing config");
    Alcotest.test_case "rollback without history is refused" `Quick (fun () ->
        let _, _, pipeline = pipeline_env () in
        let mutator = Mutator.create pipeline in
        match
          Mutator.rollback mutator ~tool:"oncall" ~path:"raw/knob.json" ~on_done:(fun _ -> ())
        with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument");
    Alcotest.test_case "breaking thrift change flagged on the review (6.4 incident)" `Quick
      (fun () ->
        let _, _, pipeline = pipeline_env () in
        (* Drop a field old clients require and change a type. *)
        let outcome =
          Pipeline.propose_sync pipeline ~author:"dana" ~skip_canary:true
            [ "schemas/job.thrift",
              {|
enum JobKind { BATCH = 0, SERVICE = 1 }
struct Job {
  1: required i64 name;
  3: list<string> args;
  4: JobKind kind = JobKind.SERVICE;
}
|};
              "modules/create_job.cinc",
              {|
import_thrift "schemas/job.thrift"
def create_job(name, memory = 1024) =
  Job { name = 7, args = [str(memory)] }
|} ]
        in
        Alcotest.(check string) "landed (flag is informational)" "landed"
          (Pipeline.outcome_stage outcome);
        let review = Pipeline.review pipeline in
        let flagged =
          List.exists
            (fun id ->
              match Review.get review id with
              | Some diff ->
                  List.exists
                    (fun v ->
                      (not v.Defense.passed)
                      && String.length v.Defense.rule >= 13
                      && String.sub v.Defense.rule 0 13 = "schema-compat")
                    diff.Review.test_results
              | None -> false)
            [ 1; 2; 3 ]
        in
        Alcotest.(check bool) "compat flag posted" true flagged);
    Alcotest.test_case "mutator transforms raw config" `Quick (fun () ->
        let engine, _, pipeline = pipeline_env () in
        let mutator = Mutator.create pipeline in
        let result = ref None in
        Mutator.set_raw mutator ~tool:"traffic-bot" ~path:"raw/knob.json"
          ~content:{|{"threshold": 42}|} ~on_done:(fun o -> result := Some o);
        let rec drive () =
          match !result with
          | Some o -> o
          | None ->
              if Engine.step engine then drive () else Alcotest.fail "drained"
        in
        Alcotest.(check string) "landed" "landed" (Pipeline.outcome_stage (drive ()));
        Alcotest.(check (option string)) "tree updated" (Some {|{"threshold": 42}|})
          (Mutator.read mutator "raw/knob.json"));
  ]

let cache_stats pipeline =
  let cache = Compiler.cache (Pipeline.compiler pipeline) in
  Compiler.Cache.hits cache, Compiler.Cache.misses cache

let incremental_tests =
  [
    Alcotest.test_case "memo table hits on unchanged closure" `Quick (fun () ->
        let compiler = Compiler.create (figure2_tree ()) in
        let cache = Compiler.cache compiler in
        ignore (Compiler.compile_all compiler);
        Alcotest.(check int) "all misses first" 3 (Compiler.Cache.misses cache);
        Alcotest.(check int) "no hits first" 0 (Compiler.Cache.hits cache);
        ignore (Compiler.compile_all compiler);
        Alcotest.(check int) "all hits second" 3 (Compiler.Cache.hits cache);
        Alcotest.(check int) "no new misses" 3 (Compiler.Cache.misses cache));
    Alcotest.test_case "digest matches artifact bytes" `Quick (fun () ->
        let tree = figure2_tree () in
        let c = compiled_of tree "jobs/cache_job.cconf" in
        Alcotest.(check string) "digest" (Compiler.digest_of_text c.Compiler.json_text)
          c.Compiler.digest);
    Alcotest.test_case "compile_affected recompiles only the cone" `Quick (fun () ->
        let tree = figure2_tree () in
        let compiler = Compiler.create tree in
        let cache = Compiler.cache compiler in
        ignore (Compiler.compile_all compiler);
        let misses0 = Compiler.Cache.misses cache in
        ST.write tree "jobs/cache_job.cconf" cache_job_v2;
        let oks, errors = Compiler.compile_affected compiler ~changed:[ "jobs/cache_job.cconf" ] in
        Alcotest.(check int) "no errors" 0 (List.length errors);
        Alcotest.(check (list string)) "cone is one config" [ "jobs/cache_job.cconf" ]
          (List.map (fun c -> c.Compiler.config_path) oks);
        Alcotest.(check int) "one fresh compile" (misses0 + 1) (Compiler.Cache.misses cache));
    Alcotest.test_case "validator edit recompiles every cconf" `Quick (fun () ->
        let tree = figure2_tree () in
        let compiler = Compiler.create tree in
        ignore (Compiler.compile_all compiler);
        ST.write tree "schemas/Job.thrift-cvalidator"
          "def validate(cfg) = cfg.memory_mb <= 4096";
        let oks, errors =
          Compiler.compile_affected compiler ~changed:[ "schemas/Job.thrift-cvalidator" ]
        in
        Alcotest.(check int) "no errors" 0 (List.length errors);
        Alcotest.(check (list string)) "both jobs, not the raw config"
          [ "jobs/cache_job.cconf"; "jobs/security_job.cconf" ]
          (List.sort String.compare (List.map (fun c -> c.Compiler.config_path) oks)));
    Alcotest.test_case "cache is shareable across compilers" `Quick (fun () ->
        let tree = figure2_tree () in
        let compiler = Compiler.create tree in
        ignore (Compiler.compile_all compiler);
        let clone = ST.of_alist (ST.snapshot tree) in
        let compiler2 = Compiler.create ~cache:(Compiler.cache compiler) clone in
        let oks, _ = Compiler.compile_all compiler2 in
        Alcotest.(check int) "3 configs" 3 (List.length oks);
        Alcotest.(check int) "served entirely from cache" 3
          (Compiler.Cache.hits (Compiler.cache compiler2));
        Alcotest.(check int) "no new compiles" 3
          (Compiler.Cache.misses (Compiler.cache compiler2)));
    Alcotest.test_case "errors are never cached" `Quick (fun () ->
        let tree = ST.of_alist [ "bad.cconf", "export nosuch" ] in
        let compiler = Compiler.create tree in
        let cache = Compiler.cache compiler in
        ignore (Compiler.compile_affected compiler ~changed:[ "bad.cconf" ]);
        ignore (Compiler.compile_affected compiler ~changed:[ "bad.cconf" ]);
        Alcotest.(check int) "recompiled both times" 2 (Compiler.Cache.misses cache);
        Alcotest.(check int) "no hits" 0 (Compiler.Cache.hits cache);
        Alcotest.(check int) "nothing retained" 0 (Compiler.Cache.size cache));
    Alcotest.test_case "proposal compiles only its cone" `Quick (fun () ->
        let _, _, pipeline = pipeline_env () in
        let _, misses0 = cache_stats pipeline in
        Alcotest.(check int) "bootstrap compiled the tree" 3 misses0;
        let outcome =
          Pipeline.propose_sync pipeline ~author:"dana" ~skip_canary:true
            [ "jobs/cache_job.cconf", cache_job_v2 ]
        in
        Alcotest.(check string) "landed" "landed" (Pipeline.outcome_stage outcome);
        let _, misses1 = cache_stats pipeline in
        Alcotest.(check int) "exactly one fresh compile for the change" (misses0 + 1) misses1);
    Alcotest.test_case "no-op proposal hits the cache and carries the artifact" `Quick
      (fun () ->
        let engine, _, pipeline = pipeline_env () in
        let same = Option.get (ST.read (Pipeline.tree pipeline) "jobs/cache_job.cconf") in
        let hits0, misses0 = cache_stats pipeline in
        let outcome =
          Pipeline.propose_sync pipeline ~author:"dana" ~skip_canary:true
            [ "jobs/cache_job.cconf", same ]
        in
        Alcotest.(check string) "landed" "landed" (Pipeline.outcome_stage outcome);
        let hits1, misses1 = cache_stats pipeline in
        Alcotest.(check int) "no recompilation" misses0 misses1;
        Alcotest.(check bool) "served from cache" true (hits1 > hits0);
        (* The unchanged artifact is carried forward, not re-committed. *)
        (match outcome with
        | Pipeline.Landed oid ->
            Alcotest.(check bool) "artifact not in the commit" false
              (List.mem "jobs/cache_job.json"
                 (Cm_vcs.Repo.changed_paths_of_commit (Pipeline.repo pipeline) oid))
        | _ -> Alcotest.fail "expected landed oid");
        let tailer = Pipeline.tailer pipeline in
        let writes0 = Tailer.writes_issued tailer in
        Engine.run_for engine 30.0;
        Alcotest.(check int) "no Zeus churn" writes0 (Tailer.writes_issued tailer));
    Alcotest.test_case "a long-lived pipeline keeps one memo slot per config" `Quick
      (fun () ->
        (* 100 landed edits of a shared module, each recompiling its
           cone under fresh closure keys: the memo keeps the latest
           artifact per config, not every cone it ever compiled. *)
        let _, _, pipeline = pipeline_env () in
        let tree = Pipeline.tree pipeline in
        let configs =
          List.length (ST.paths_of_kind tree ST.Cconf) + List.length (ST.paths_of_kind tree ST.Raw)
        in
        let cache = Compiler.cache (Pipeline.compiler pipeline) in
        for k = 1 to 100 do
          let outcome =
            Pipeline.propose_sync pipeline ~author:"dana" ~skip_canary:true
              [ "modules/create_job.cinc", create_job_module (1024 + k) ]
          in
          Alcotest.(check string) "landed" "landed" (Pipeline.outcome_stage outcome);
          if Compiler.Cache.size cache > configs then
            Alcotest.failf "edit %d: %d slots for %d configs" k (Compiler.Cache.size cache)
              configs
        done;
        Alcotest.(check int) "every edit compiled its cone" (configs + 200)
          (Compiler.Cache.misses cache));
    Alcotest.test_case "a rejected proposal's slots never serve a stale artifact" `Quick
      (fun () ->
        let _, _, pipeline = pipeline_env () in
        let live = Pipeline.compiler pipeline in
        let cache = Compiler.cache live in
        Sandcastle.add_check (Pipeline.sandcastle pipeline)
          {
            Sandcastle.check_name = "memory-below-9999";
            run =
              (fun compiled ->
                Defense.finding
                  ~ok:
                    (List.for_all
                       (fun c ->
                         Cm_json.Value.member "memory_mb" c.Compiler.json
                         <> Some (Cm_json.Value.Int 9999))
                       compiled)
                  "memory below 9999");
          };
        let bad = [ "modules/create_job.cinc", create_job_module 9999 ] in
        let propose changes =
          let misses0 = Compiler.Cache.misses cache in
          let stage =
            Pipeline.outcome_stage
              (Pipeline.propose_sync pipeline ~author:"dana" ~skip_canary:true changes)
          in
          stage, Compiler.Cache.misses cache - misses0
        in
        (* The clone compiles the cone into the shared slots, then
           sandcastle bounces it; the same bytes again are all hits. *)
        Alcotest.(check (pair string int)) "bounced after compiling its cone"
          ("sandcastle", 2) (propose bad);
        Alcotest.(check (pair string int)) "the same bytes again hit" ("sandcastle", 0)
          (propose bad);
        let render (oks, errors) =
          List.map (fun c -> c.Compiler.config_path, c.Compiler.digest) oks, List.length errors
        in
        let fresh = Compiler.create (ST.copy (Pipeline.tree pipeline)) in
        let misses0 = Compiler.Cache.misses cache in
        Alcotest.(check (pair (list (pair string string)) int))
          "the live tree compiles as a fresh compiler does"
          (render (Compiler.compile_all fresh))
          (render (Compiler.compile_all live));
        Alcotest.(check int) "by recompiling the two replaced slots" 2
          (Compiler.Cache.misses cache - misses0);
        let live_module =
          Option.get (ST.read (Pipeline.tree pipeline) "modules/create_job.cinc")
        in
        Alcotest.(check (pair string int)) "re-proposing the live bytes hits" ("landed", 0)
          (propose [ "modules/create_job.cinc", live_module ]);
        Alcotest.(check int) "one slot per config" 3 (Compiler.Cache.size cache));
    Alcotest.test_case "read-set conflict bounces the diff" `Quick (fun () ->
        let engine = Engine.create () in
        let repo = Cm_vcs.Repo.create () in
        let landing = Landing.create engine repo in
        ignore
          (Cm_vcs.Repo.commit repo ~author:"seed" ~message:"s" ~timestamp:0.0
             [ "dep.cinc", Some "D = 1"; "a.cconf", Some "import \"dep.cinc\"\nexport { d: D }" ]);
        let base = Cm_vcs.Repo.head repo in
        (* dep.cinc moves under the diff: its carried artifact is stale. *)
        ignore
          (Cm_vcs.Repo.commit repo ~author:"other" ~message:"m" ~timestamp:1.0
             [ "dep.cinc", Some "D = 2" ]);
        let outcome = ref None in
        Landing.submit ~reads:[ "dep.cinc" ] landing
          { Landing.author = "dana"; message = "m"; base;
            changes = [ "a.cconf", Some "import \"dep.cinc\"\nexport { d: D, x: 1 }" ] }
          ~on_result:(fun r -> outcome := Some r);
        Engine.run engine;
        match !outcome with
        | Some (Landing.Conflict [ "dep.cinc" ]) -> ()
        | _ -> Alcotest.fail "expected a read-set conflict on dep.cinc");
    Alcotest.test_case "tailer suppresses round-trip no-op writes" `Quick (fun () ->
        let engine = Engine.create () in
        let topo =
          Cm_sim.Topology.create ~regions:1 ~clusters_per_region:1 ~nodes_per_cluster:20
        in
        let net = Cm_sim.Net.create engine topo in
        let zeus = Cm_zeus.Service.create net in
        let repo = Cm_vcs.Repo.create () in
        let tailer = Tailer.create engine repo zeus in
        ignore
          (Cm_vcs.Repo.commit repo ~author:"a" ~message:"v1" ~timestamp:0.0
             [ "x.json", Some "{\"v\":1}" ]);
        Tailer.force_poll tailer;
        Engine.run_for engine 30.0;
        Alcotest.(check int) "initial write" 1 (Tailer.writes_issued tailer);
        (* A bad value lands and is rolled back between two polls: the
           endpoint bytes are what the fleet already holds. *)
        ignore
          (Cm_vcs.Repo.commit repo ~author:"a" ~message:"v2" ~timestamp:1.0
             [ "x.json", Some "{\"v\":2}" ]);
        ignore
          (Cm_vcs.Repo.commit repo ~author:"oncall" ~message:"rollback" ~timestamp:2.0
             [ "x.json", Some "{\"v\":1}" ]);
        Tailer.force_poll tailer;
        Engine.run_for engine 30.0;
        Alcotest.(check int) "write suppressed" 1 (Tailer.writes_suppressed tailer);
        Alcotest.(check int) "no new writes" 1 (Tailer.writes_issued tailer);
        Alcotest.(check (option string)) "zeus still holds v1" (Some "{\"v\":1}")
          (Cm_zeus.Service.committed_value zeus "x.json"));
    Alcotest.test_case "sandcastle skips already-validated artifacts" `Quick (fun () ->
        let sandcastle = Sandcastle.create () in
        let tree = figure2_tree () in
        let c = compiled_of tree "jobs/cache_job.cconf" in
        let r1 = Sandcastle.run sandcastle [ c ] in
        Alcotest.(check bool) "first run passes" true (Sandcastle.passed r1);
        Alcotest.(check int) "nothing skipped yet" 0
          (Sandcastle.revalidations_skipped sandcastle);
        let r2 = Sandcastle.run sandcastle [ c ] in
        Alcotest.(check bool) "second run passes" true (Sandcastle.passed r2);
        Alcotest.(check int) "byte-identical artifact skipped" 1
          (Sandcastle.revalidations_skipped sandcastle));
  ]

let client_tests =
  [
    Alcotest.test_case "typed read under application schema" `Quick (fun () ->
        let engine, zeus, pipeline = pipeline_env () in
        ignore pipeline;
        let client = Client.create zeus ~node:42 in
        Client.want client "jobs/cache_job.json";
        Engine.run_for engine 10.0;
        let schema =
          Cm_thrift.Idl.parse_exn
            "enum JobKind { BATCH = 0, SERVICE = 1 } struct Job { 1: required string name; 2: i32 memory_mb; }"
        in
        match Client.get_typed client ~schema ~type_name:"Job" "jobs/cache_job.json" with
        | Ok v ->
            Alcotest.(check bool) "name" true
              (TValue.field "name" v = Some (TValue.Str "cache"))
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "old client schema mismatch surfaces as error" `Quick (fun () ->
        let engine, zeus, pipeline = pipeline_env () in
        ignore pipeline;
        let client = Client.create zeus ~node:43 in
        Client.want client "jobs/cache_job.json";
        Engine.run_for engine 10.0;
        let old_schema =
          Cm_thrift.Idl.parse_exn "struct Job { 1: required string legacy_field; }"
        in
        match Client.get_typed client ~schema:old_schema ~type_name:"Job" "jobs/cache_job.json" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected schema mismatch");
    Alcotest.test_case "client parses each delivered version once" `Quick (fun () ->
        let engine, zeus, pipeline = pipeline_env () in
        let client = Client.create zeus ~node:44 in
        Client.want client "raw/knob.json";
        Engine.run_for engine 10.0;
        let v1 = Client.get_json client "raw/knob.json" in
        Alcotest.(check bool) "value present" true (v1 <> None);
        Alcotest.(check int) "one decode" 1 (Client.decodes client);
        let v1' = Client.get_json client "raw/knob.json" in
        Alcotest.(check bool) "same parse shared" true (v1 = v1');
        Alcotest.(check int) "still one decode" 1 (Client.decodes client);
        Alcotest.(check int) "memo hit" 1 (Client.memo_hits client);
        let outcome =
          Pipeline.propose_sync pipeline ~author:"dana" ~skip_canary:true
            [ "raw/knob.json", {|{"threshold": 6}|} ]
        in
        Alcotest.(check string) "landed" "landed" (Pipeline.outcome_stage outcome);
        Engine.run_for engine 30.0;
        (match Client.get_json client "raw/knob.json" with
        | Some json ->
            Alcotest.(check bool) "new value visible" true
              (Cm_json.Value.member "threshold" json = Some (Cm_json.Value.Int 6))
        | None -> Alcotest.fail "missing config");
        Alcotest.(check int) "re-decoded once for the new version" 2
          (Client.decodes client));
  ]

let faults_tests =
  [
    Alcotest.test_case "injection mix follows configured shares" `Quick (fun () ->
        let rng = Cm_sim.Rng.create 17L in
        let counts = Hashtbl.create 4 in
        for _ = 1 to 5000 do
          let injected = Faults.inject rng Faults.default_rates in
          let key = Faults.error_type_name injected.Faults.etype in
          Hashtbl.replace counts key
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
        done;
        let share name =
          float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name)) /. 5000.0
        in
        let r = Faults.default_rates in
        Alcotest.(check bool) "type I share matches default_rates" true
          (Float.abs (share (Faults.error_type_name Faults.Type_i) -. r.Faults.share_type_i)
          < 0.03);
        Alcotest.(check bool) "type II share matches default_rates" true
          (Float.abs (share (Faults.error_type_name Faults.Type_ii) -. r.Faults.share_type_ii)
          < 0.02);
        Alcotest.(check bool) "type III gets the remainder" true
          (Float.abs
             (share (Faults.error_type_name Faults.Type_iii)
             -. (1.0 -. r.Faults.share_type_i -. r.Faults.share_type_ii))
          < 0.02));
    Alcotest.test_case "healthy sampler has no crashes" `Quick (fun () ->
        let rng = Cm_sim.Rng.create 18L in
        let sampler = Faults.healthy rng in
        for _ = 1 to 100 do
          let metrics = sampler ~node:0 ~test:true ~cohort:500 in
          Alcotest.(check (float 1e-9)) "no crash" 0.0 (List.assoc "crashes" metrics)
        done);
  ]

let risk_tests =
  [
    Alcotest.test_case "quiet config, regular author: low risk" `Quick (fun () ->
        let history =
          { Core.Risk.write_days = [ 0.0; 10.0; 20.0 ]; authors = [ "dana" ]; fanout = 1 }
        in
        let a =
          Core.Risk.assess ~history ~now:30.0 ~old_text:(Some "a\nb") ~new_text:"a\nc"
            ~author:"dana" ()
        in
        Alcotest.(check string) "low" "low" (Core.Risk.level_name a.Core.Risk.level));
    Alcotest.test_case "dormant config suddenly changed (the paper's example)" `Quick
      (fun () ->
        let history =
          { Core.Risk.write_days = [ 0.0; 5.0 ]; authors = [ "dana" ]; fanout = 0 }
        in
        let a =
          Core.Risk.assess ~history ~now:400.0 ~old_text:(Some "x") ~new_text:"y"
            ~author:"dana" ()
        in
        Alcotest.(check bool) "dormant signal" true
          (List.exists
             (fun s -> s.Core.Risk.signal_name = "dormant-awakened")
             a.Core.Risk.signals));
    Alcotest.test_case "dormant + stranger + big diff = HIGH" `Quick (fun () ->
        let history =
          { Core.Risk.write_days = [ 0.0 ]; authors = [ "dana" ]; fanout = 20 }
        in
        let old_text = String.concat "\n" (List.init 10 string_of_int) in
        let new_text = String.concat "\n" (List.init 200 (fun i -> string_of_int (i * 7))) in
        let a =
          Core.Risk.assess ~history ~now:400.0 ~old_text:(Some old_text) ~new_text
            ~author:"intern" ()
        in
        Alcotest.(check string) "high" "HIGH" (Core.Risk.level_name a.Core.Risk.level);
        Alcotest.(check bool) "several signals" true (List.length a.Core.Risk.signals >= 3));
    Alcotest.test_case "highly-shared config flagged" `Quick (fun () ->
        let history =
          {
            Core.Risk.write_days = [ 0.0; 1.0; 2.0 ];
            authors = List.init 30 (fun i -> Printf.sprintf "eng%d" i);
            fanout = 0;
          }
        in
        let a =
          Core.Risk.assess ~history ~now:3.0 ~old_text:(Some "x") ~new_text:"y"
            ~author:"eng0" ()
        in
        Alcotest.(check bool) "shared signal" true
          (List.exists (fun s -> s.Core.Risk.signal_name = "highly-shared") a.Core.Risk.signals));
    Alcotest.test_case "history_of_repo extracts writes, authors, fanout" `Quick (fun () ->
        let repo = Cm_vcs.Repo.create () in
        ignore
          (Cm_vcs.Repo.commit repo ~author:"a" ~message:"m" ~timestamp:(1.0 *. 86400.0)
             [ "base.cinc", Some "B = 1"; "top.cconf", Some "import \"base.cinc\"\nexport { b: B }" ]);
        ignore
          (Cm_vcs.Repo.commit repo ~author:"b" ~message:"m" ~timestamp:(5.0 *. 86400.0)
             [ "base.cinc", Some "B = 2" ]);
        let tree =
          ST.of_alist
            [ "base.cinc", "B = 2"; "top.cconf", "import \"base.cinc\"\nexport { b: B }" ]
        in
        let dep = Depgraph.of_tree tree in
        let history = Core.Risk.history_of_repo repo dep ~path:"base.cinc" ~now:10.0 in
        Alcotest.(check int) "two writes" 2 (List.length history.Core.Risk.write_days);
        Alcotest.(check (list string)) "authors" [ "a"; "b" ] history.Core.Risk.authors;
        Alcotest.(check int) "fanout" 1 history.Core.Risk.fanout);
    Alcotest.test_case "pipeline posts risk flags to the review" `Quick (fun () ->
        let engine, _, pipeline = pipeline_env () in
        ignore engine;
        (* An author who never touched the file + a much bigger config. *)
        let big =
          "import \"modules/create_job.cinc\"\n"
          ^ String.concat "\n"
              (List.init 60 (fun i -> Printf.sprintf "x%d = %d" i i))
          ^ "\nexport create_job(\"cache\", 4096)"
        in
        let outcome =
          Pipeline.propose_sync pipeline ~author:"stranger"
            [ "jobs/cache_job.cconf", big ]
        in
        Alcotest.(check string) "landed" "landed" (Pipeline.outcome_stage outcome);
        let review = Pipeline.review pipeline in
        let flagged =
          List.exists
            (fun diff ->
              List.exists
                (fun v ->
                  String.length v.Defense.rule >= 9
                  && String.sub v.Defense.rule 0 9 = "risk-flag")
                diff.Review.test_results)
            (List.filter_map (fun id -> Review.get review id) [ 1; 2; 3 ])
        in
        Alcotest.(check bool) "flag posted" true flagged);
  ]

let canary_spec_tests =
  [
    Alcotest.test_case "spec json round trip" `Quick (fun () ->
        let spec = Canary.default_spec in
        match Canary.spec_of_json (Canary.spec_to_json spec) with
        | Ok back ->
            Alcotest.(check int) "phases" (List.length spec.Canary.phases)
              (List.length back.Canary.phases);
            let p = List.hd back.Canary.phases in
            Alcotest.(check string) "name" "p1-20-servers" p.Canary.phase_name;
            Alcotest.(check int) "checks" 4 (List.length p.Canary.checks)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "spec parse errors" `Quick (fun () ->
        List.iter
          (fun text ->
            match Canary.spec_of_string text with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "should reject %s" text)
          [ "{}"; "{\"phases\": []}"; "{\"phases\": [{\"name\": \"p\"}]}"; "not json" ]);
    Alcotest.test_case "per-config .canary file drives the pipeline" `Quick (fun () ->
        let engine, _, pipeline = pipeline_env () in
        (* A quick one-phase spec: 10 servers for 20 seconds. *)
        let spec_json =
          {|{"phases":[{"name":"quick","target":{"servers":10},"duration":20,"sample_every":5}]}|}
        in
        let t0 = Engine.now engine in
        let outcome =
          Pipeline.propose_sync pipeline ~author:"dana"
            [ "jobs/cache_job.cconf.canary", spec_json;
              "jobs/cache_job.cconf", cache_job_v2 ]
        in
        Alcotest.(check string) "landed" "landed" (Pipeline.outcome_stage outcome);
        (* Default spec takes 600s of canary; the quick one ~20s. *)
        Alcotest.(check bool) "fast canary" true (Engine.now engine -. t0 < 400.0));
    Alcotest.test_case "invalid .canary file rejected at compile" `Quick (fun () ->
        let _, _, pipeline = pipeline_env () in
        let outcome =
          Pipeline.propose_sync pipeline ~author:"dana"
            [ "jobs/cache_job.cconf.canary", "{\"phases\": 3}";
              "jobs/cache_job.cconf", cache_job_v2 ]
        in
        Alcotest.(check string) "compile" "compile" (Pipeline.outcome_stage outcome));
  ]

let ui_tests =
  [
    Alcotest.test_case "apply_edits navigates structs and maps" `Quick (fun () ->
        let schema =
          Cm_thrift.Idl.parse_exn
            "struct S { 1: required string name; 2: i32 n; 3: map<string, i64> limits; }"
        in
        let v =
          TValue.Struct
            ( "S",
              [ "name", TValue.Str "x"; "n", TValue.Int 1;
                "limits", TValue.Map [ TValue.Str "cpu", TValue.Int 4 ] ] )
        in
        match
          Core.Ui.apply_edits ~schema ~type_name:"S" v
            [ Core.Ui.set [ "n" ] (TValue.Int 9);
              Core.Ui.set [ "limits"; "cpu" ] (TValue.Int 8) ]
        with
        | Ok updated ->
            Alcotest.(check bool) "n" true (TValue.field "n" updated = Some (TValue.Int 9));
            Alcotest.(check bool) "cpu" true
              (TValue.field "limits" updated
              = Some (TValue.Map [ TValue.Str "cpu", TValue.Int 8 ]))
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "edit violating the schema fails before review" `Quick (fun () ->
        let schema = Cm_thrift.Idl.parse_exn "struct S { 1: i32 n; }" in
        let v = TValue.Struct ("S", [ "n", TValue.Int 1 ]) in
        match
          Core.Ui.apply_edits ~schema ~type_name:"S" v
            [ Core.Ui.set [ "n" ] (TValue.Str "not an int") ]
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected schema rejection");
    Alcotest.test_case "unknown field rejected" `Quick (fun () ->
        let schema = Cm_thrift.Idl.parse_exn "struct S { 1: i32 n; }" in
        let v = TValue.Struct ("S", [ "n", TValue.Int 1 ]) in
        match
          Core.Ui.apply_edits ~schema ~type_name:"S" v
            [ Core.Ui.set [ "typo" ] (TValue.Int 2) ]
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected rejection");
    Alcotest.test_case "describe_edits renders the review text" `Quick (fun () ->
        let v = TValue.Struct ("S", [ "sampling", TValue.Int 1 ]) in
        let text =
          Core.Ui.describe_edits ~old_value:v
            [ Core.Ui.set [ "sampling" ] (TValue.Int 10) ]
        in
        Alcotest.(check string) "text" "Updated sampling from 1 to 10" text);
    Alcotest.test_case "source_of_value compiles back to the same JSON" `Quick (fun () ->
        let tree = figure2_tree () in
        let compiler = Compiler.create tree in
        let compiled =
          match Compiler.compile compiler "jobs/cache_job.cconf" with
          | Ok c -> c
          | Error e -> Alcotest.failf "compile: %a" Compiler.pp_error e
        in
        let value =
          match
            Cm_thrift.Codec.decode_struct compiled.Compiler.schema "Job"
              compiled.Compiler.json
          with
          | Ok v -> v
          | Error e -> Alcotest.failf "decode: %a" Cm_thrift.Codec.pp_error e
        in
        match Core.Ui.source_of_value ~thrift_imports:[ "schemas/job.thrift" ] value with
        | Error e -> Alcotest.fail e
        | Ok source -> (
            ST.write tree "jobs/cache_job_ui.cconf" source;
            match Compiler.compile compiler "jobs/cache_job_ui.cconf" with
            | Ok c2 ->
                Alcotest.(check string) "same artifact" compiled.Compiler.json_text
                  c2.Compiler.json_text
            | Error e -> Alcotest.failf "generated source failed: %a" Compiler.pp_error e));
    Alcotest.test_case "full UI round trip through the pipeline" `Quick (fun () ->
        let engine, zeus, pipeline = pipeline_env () in
        let client = Client.create zeus ~node:44 in
        Client.want client "jobs/cache_job.json";
        Engine.run_for engine 10.0;
        let result = ref None in
        Core.Ui.propose pipeline ~author:"pm-edit" ~config_path:"jobs/cache_job.cconf"
          [ Core.Ui.set [ "memory_mb" ] (TValue.Int 3072) ]
          ~on_done:(fun outcome -> result := Some outcome);
        let rec drive () =
          match !result with
          | Some outcome -> outcome
          | None -> if Engine.step engine then drive () else Alcotest.fail "drained"
        in
        Alcotest.(check string) "landed" "landed" (Pipeline.outcome_stage (drive ()));
        (* The diff title is the generated description. *)
        let review = Pipeline.review pipeline in
        let titled =
          List.exists
            (fun id ->
              match Review.get review id with
              | Some diff -> diff.Review.title = "Updated memory_mb from 2048 to 3072"
              | None -> false)
            [ 1; 2; 3 ]
        in
        Alcotest.(check bool) "review title" true titled;
        Engine.run_for engine 30.0;
        match Client.get_json client "jobs/cache_job.json" with
        | Some json ->
            Alcotest.(check bool) "fleet updated" true
              (Cm_json.Value.member "memory_mb" json = Some (Cm_json.Value.Int 3072))
        | None -> Alcotest.fail "client missing config");
  ]

(* --- property tests --------------------------------------------------- *)

let gen_spec =
  let open QCheck2.Gen in
  let predicate =
    oneof
      [
        pure Canary.No_crashes;
        map2 (fun m x -> Canary.Metric_below (m, x)) (oneofl [ "error_rate"; "latency_ms" ])
          (float_range 0.1 100.0);
        map2
          (fun m x -> Canary.Relative_increase_at_most (m, x))
          (oneofl [ "error_rate"; "latency_ms" ])
          (float_range 0.01 1.0);
        map2
          (fun m x -> Canary.Relative_drop_at_most (m, x))
          (oneofl [ "ctr" ])
          (float_range 0.01 1.0);
      ]
  in
  let phase =
    let* name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
    let* target = oneof [ pure Canary.Cluster; map (fun n -> Canary.Servers n) (int_range 1 50) ] in
    let* duration = float_range 10.0 600.0 in
    let* sample_every = float_range 1.0 60.0 in
    let* checks = list_size (int_range 0 4) predicate in
    pure { Canary.phase_name = name; target; duration; sample_every; checks }
  in
  QCheck2.Gen.map (fun phases -> { Canary.phases }) (list_size (int_range 1 4) phase)

let spec_roundtrip_property =
  QCheck2.Test.make ~name:"canary spec JSON round-trips" ~count:200 gen_spec (fun spec ->
      match Canary.spec_of_json (Canary.spec_to_json spec) with
      | Error _ -> false
      | Ok back ->
          List.length back.Canary.phases = List.length spec.Canary.phases
          && List.for_all2
               (fun a b ->
                 a.Canary.phase_name = b.Canary.phase_name
                 && a.Canary.target = b.Canary.target
                 && a.Canary.checks = b.Canary.checks)
               spec.Canary.phases back.Canary.phases)

let gen_job_value =
  let open QCheck2.Gen in
  let* name = string_size ~gen:(char_range 'a' 'z') (int_range 1 10) in
  let* memory = int_range 64 65536 in
  let* args = list_size (int_range 0 4) (string_size ~gen:(char_range 'a' 'z') (int_range 0 6)) in
  let* kind = oneofl [ "BATCH"; "SERVICE" ] in
  pure
    (TValue.Struct
       ( "Job",
         [
           "name", TValue.Str name;
           "memory_mb", TValue.Int memory;
           "args", TValue.List (List.map (fun a -> TValue.Str a) args);
           "kind", TValue.Enum ("JobKind", kind);
         ] ))

let ui_source_roundtrip_property =
  QCheck2.Test.make ~name:"UI-generated CSL compiles back to the same JSON" ~count:150
    gen_job_value (fun value ->
      let tree = figure2_tree () in
      let compiler = Compiler.create tree in
      match Core.Ui.source_of_value ~thrift_imports:[ "schemas/job.thrift" ] value with
      | Error _ -> false
      | Ok source -> (
          ST.write tree "generated.cconf" source;
          match Compiler.compile compiler "generated.cconf" with
          | Error _ -> false
          | Ok compiled -> (
              let schema = Cm_thrift.Idl.parse_exn
                  "enum JobKind { BATCH = 0, SERVICE = 1 }\nstruct Job { 1: required string name; 2: optional i32 memory_mb = 1024; 3: list<string> args; 4: JobKind kind = JobKind.SERVICE; }"
              in
              match Cm_thrift.Check.check_struct schema "Job" value with
              | Error _ -> false
              | Ok normalized ->
                  Cm_json.Value.equal (Cm_thrift.Codec.encode normalized)
                    compiled.Compiler.json)))

let risk_monotone_property =
  QCheck2.Test.make ~name:"risk score never decreases when a signal is added" ~count:200
    QCheck2.Gen.(pair (float_range 0.0 500.0) (int_range 1 40))
    (fun (idle, nauthors) ->
      let history_small =
        { Core.Risk.write_days = [ 0.0 ];
          authors = List.init nauthors (fun i -> Printf.sprintf "e%d" i); fanout = 0 }
      in
      let history_fanout = { history_small with Core.Risk.fanout = 50 } in
      let assess history =
        (Core.Risk.assess ~history ~now:idle ~old_text:(Some "x") ~new_text:"y"
           ~author:"e0" ())
          .Core.Risk.score
      in
      assess history_fanout >= assess history_small)

(* Incremental compilation must be invisible: after any sequence of
   mutations, the long-lived compiler (memo table, patched depgraph)
   must produce byte-for-byte the artifacts a from-scratch compiler
   sees. *)
let incr_equivalence_property =
  let mutation_site idx v =
    match idx with
    | 0 -> "modules/base.cinc", Printf.sprintf "BASE = %d" v
    | (1 | 2) as k ->
        let k = k - 1 in
        ( Printf.sprintf "modules/m%d.cinc" k,
          Printf.sprintf "import \"modules/base.cinc\"\nM%d = BASE + %d" k v )
    | i ->
        let i = i - 3 in
        let k = i mod 2 in
        ( Printf.sprintf "configs/c%d.cconf" i,
          Printf.sprintf "import \"modules/m%d.cinc\"\nexport { id: %d, v: %d, m: M%d }" k i
            v k )
  in
  QCheck2.Test.make ~name:"incremental compile equals full rebuild" ~count:60
    QCheck2.Gen.(list_size (int_range 1 12) (pair (int_range 0 6) (int_range 0 99)))
    (fun mutations ->
      let tree = ST.of_alist (List.init 7 (fun idx -> mutation_site idx 0)) in
      let incr = Compiler.create tree in
      ignore (Compiler.compile_all incr);
      let view compiler =
        let oks, errors = Compiler.compile_all compiler in
        ( List.sort compare
            (List.map (fun c -> c.Compiler.artifact_path, c.Compiler.json_text) oks),
          List.length errors )
      in
      List.for_all
        (fun (idx, v) ->
          let path, source = mutation_site idx v in
          ST.write tree path source;
          ignore (Compiler.compile_affected incr ~changed:[ path ]);
          view incr = view (Compiler.create tree))
        mutations)

(* The memo key as defined before Source_tree indexed its validators:
   every validator found by filtering the whole tree.  The key's bytes
   are part of the cache's contract (a clone and the live tree share
   one cache), so the indexed key must equal this one exactly. *)
let reference_closure_hash compiler path =
  let tree = Compiler.source_tree compiler and dep = Compiler.depgraph compiler in
  let validator_closure =
    List.concat_map
      (fun v -> v :: Depgraph.transitive_deps dep v)
      (List.filter (fun p -> ST.kind_of_path p = ST.Cvalidator) (ST.paths tree))
  in
  let closure =
    List.sort_uniq String.compare
      ((path :: Depgraph.transitive_deps dep path) @ validator_closure)
  in
  let buf = Buffer.create 512 in
  List.iter
    (fun p ->
      Buffer.add_string buf p;
      Buffer.add_char buf '\000';
      (match ST.read tree p with
      | Some content -> Buffer.add_string buf (Digest.string content)
      | None -> Buffer.add_string buf "\000<missing>");
      Buffer.add_char buf '\000')
    closure;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Files a random keyed tree may hold, each parameterized by a small
   int: typed and untyped configs, a config with a missing import,
   source validators at the root and nested (two for Svc, so the
   first in sorted order must win), one that imports a [.cinc], one
   with a missing import (which fails when run, with a Validation
   error), one that does not parse, and a path ending in [cvalidator]
   without [.thrift-], which [kind_of_path] also counts as a
   validator. *)
let keyed_files =
  let p = Printf.sprintf in
  [|
    "modules/m0.cinc", (fun v -> p "M0 = %d" v);
    "modules/m1.cinc", (fun v -> p "import \"modules/m0.cinc\"\nM1 = M0 + %d" v);
    "modules/lim.cinc", (fun v -> p "LIMIT = %d" (v + 4));
    "c/a.cconf", (fun v -> p "import \"modules/m0.cinc\"\nexport { n: M0 + %d }" v);
    ( "c/job.cconf",
      fun v ->
        p "import_thrift \"schemas/t.thrift\"\nimport \"modules/m1.cinc\"\nexport Job { n = M1 + %d }" v );
    ( "c/d/job2.cconf",
      fun v -> p "import_thrift \"schemas/t.thrift\"\nexport Job { n = %d }" v );
    ( "c/svc.cconf",
      fun v ->
        p "import_thrift \"schemas/t.thrift\"\nimport \"modules/m0.cinc\"\nexport Svc { n = M0 + %d }" v );
    "c/lost.cconf", (fun v -> p "import \"modules/gone.cinc\"\nexport { n: %d }" v);
    "raw/knob.json", (fun v -> p {|{"v": %d}|} v);
    "Job.thrift-cvalidator", (fun v -> p "def validate(cfg) = cfg.n < %d" (v + 5));
    "schemas/Job.thrift-cvalidator", (fun v -> p "def validate(cfg) = cfg.n != %d" v);
    "b/Svc.thrift-cvalidator", (fun v -> p "def validate(cfg) = cfg.n < %d" (v + 3));
    "c/Svc.thrift-cvalidator", (fun v -> p "def validate(cfg) = cfg.n > %d" v);
    ( "v/Svc.thrift-cvalidator",
      fun v -> p "import \"modules/lim.cinc\"\ndef validate(cfg) = cfg.n < LIMIT + %d" v );
    ( "w/Job.thrift-cvalidator",
      fun v -> p "import \"modules/gone.cinc\"\ndef validate(cfg) = cfg.n < %d" v );
    "x/Svc.thrift-cvalidator", (fun v -> p "def validate(cfg) = (%d" v);
    "misc/notes.cvalidator", (fun v -> p "import \"modules/m1.cinc\"\nNOTE = %d" v);
  |]

let keyed_schema =
  "schemas/t.thrift", "struct Job { 1: optional i32 n = 0; }\nstruct Svc { 1: optional i32 n = 0; }"

(* A random tree (each file present with probability 1/2) and a
   random list of writes ([Some v]) and removes ([None]) to apply to a
   copy of it. *)
let keyed_gen =
  let open QCheck2.Gen in
  let file_count = Array.length keyed_files in
  pair
    (list_repeat file_count (opt ~ratio:0.5 (int_range 0 9)))
    (list_size (int_range 0 8) (pair (int_range 0 (file_count - 1)) (opt (int_range 0 9))))

let keyed_trees (present, edits) =
  let file i v = let path, source = keyed_files.(i) in path, source v in
  let tree =
    ST.of_alist
      (keyed_schema
      :: List.concat (List.mapi (fun i -> function Some v -> [ file i v ] | None -> []) present))
  in
  let clone = ST.copy tree in
  List.iter
    (fun (i, v) ->
      match v with
      | Some v -> let path, source = file i v in ST.write clone path source
      | None -> ST.remove clone (fst keyed_files.(i)))
    edits;
  tree, clone

let config_paths tree = ST.paths_of_kind tree ST.Cconf @ ST.paths_of_kind tree ST.Raw

let closure_key_property =
  QCheck2.Test.make ~name:"closure keys equal the whole-tree reference" ~count:200 keyed_gen
    (fun spec ->
      let tree, clone = keyed_trees spec in
      List.for_all
        (fun tree ->
          let compiler = Compiler.create tree in
          List.for_all
            (fun path ->
              String.equal (Compiler.closure_hash compiler path)
                (reference_closure_hash compiler path))
            (config_paths tree))
        [ tree; clone ])

(* The source validator a type got before the index: the first path,
   in whole-tree sorted order, named "<Type>.thrift-cvalidator". *)
let reference_validator tree type_name =
  let suffix = type_name ^ ".thrift-cvalidator" in
  List.find_opt
    (fun path -> path = suffix || String.ends_with ~suffix:("/" ^ suffix) path)
    (ST.paths tree)

(* A typed compile through the index of an edited clone (pooled
   [compile_all] and single [compile]) equals a compile over a fresh
   tree of the same files, and over a fresh tree that keeps only the
   validator the whole-tree rule picks for each type. *)
let clone_compile_property =
  QCheck2.Test.make ~name:"compile over an edited clone equals a fresh tree" ~count:150
    keyed_gen (fun spec ->
      let _, clone = keyed_trees spec in
      let render = function
        | Ok c -> "ok " ^ c.Compiler.json_text
        | Error e -> Compiler.stage_name e.Compiler.stage ^ " " ^ e.Compiler.message
      in
      let chosen = List.filter_map (reference_validator clone) [ "Job"; "Svc" ] in
      let fresh = Compiler.create (ST.of_alist (ST.snapshot clone)) in
      let pruned =
        Compiler.create
          (ST.of_alist
             (List.filter
                (fun (p, _) -> ST.kind_of_path p <> ST.Cvalidator || List.mem p chosen)
                (ST.snapshot clone)))
      in
      let edited = Compiler.create clone in
      let oks, errors = Compiler.compile_all edited in
      let collected =
        List.sort compare
          (List.map (fun c -> c.Compiler.config_path, render (Ok c)) oks
          @ List.map (fun e -> e.Compiler.at, render (Error e)) errors)
      in
      let each compiler =
        List.sort compare
          (List.map (fun p -> p, render (Compiler.compile compiler p)) (config_paths clone))
      in
      collected = each fresh && each edited = each fresh && each pruned = each fresh)

(* --- snapshots: a copy is independent by construction ---------------- *)

module Smap = Map.Make (String)

let model_paths =
  [| "a.cconf"; "d/b.cconf"; "m.cinc"; "s.thrift"; "Job.thrift-cvalidator";
     "d/Job.thrift-cvalidator"; "notes.cvalidator"; "r.json"; "raw/x" |]

(* Random interleavings of [write] (0), [remove] (1) and [copy] (2), each
   on one of the handles made so far (the first is an empty tree). *)
let tree_ops_gen =
  let open QCheck2.Gen in
  list_size (int_range 0 30)
    (triple (int_range 0 2) nat (pair (int_bound (Array.length model_paths - 1)) (int_bound 3)))

let source_tree_model_property =
  QCheck2.Test.make ~name:"every source tree copy equals its map model" ~count:300 tree_ops_gen
    (fun ops ->
      let agrees (tree, model) =
        let paths = List.map fst (Smap.bindings model) in
        ST.paths tree = paths
        && ST.snapshot tree = Smap.bindings model
        && Array.for_all
             (fun p -> ST.read tree p = Smap.find_opt p model && ST.mem tree p = Smap.mem p model)
             model_paths
        && List.for_all
             (fun kind ->
               ST.paths_of_kind tree kind = List.filter (fun p -> ST.kind_of_path p = kind) paths)
             all_kinds
      in
      let step handles (op, h, (i, v)) =
        let k = h mod List.length handles in
        let tree, model = List.nth handles k in
        let path = model_paths.(i) and content = string_of_int v in
        let set f = List.mapi (fun j (t, m) -> t, if j = k then f m else m) handles in
        let handles =
          match op with
          | 0 ->
              ST.write tree path content;
              set (Smap.add path content)
          | 1 ->
              ST.remove tree path;
              set (Smap.remove path)
          | _ -> handles @ [ ST.copy tree, model ]
        in
        if List.for_all agrees handles then Some handles else None
      in
      List.fold_left (fun acc op -> Option.bind acc (fun hs -> step hs op))
        (Some [ ST.create (), Smap.empty ]) ops
      <> None)

(* Files of a random dependency graph: cyclic, missing, config-to-config
   and thrift imports, an unparseable source, a validator.  "base.cinc"
   is in every tree and never edited, so its absolute import always
   resolves; the absolute imports of "m.cinc" and "n.cinc" resolve only
   while an edit has not removed them. *)
let graph_paths =
  [| "a.cconf"; "b.cconf"; "d/c.cconf"; "m.cinc"; "n.cinc"; "Job.thrift-cvalidator";
     "s.thrift"; "r.json" |]

let graph_source = function
  | 0 -> "X = 1"
  | 1 -> "import \"m.cinc\"\nX = M"
  | 2 -> "import \"n.cinc\"\nimport \"/base.cinc\"\nX = 2"
  | 3 -> "import \"m.cinc\"\nimport \"n.cinc\"\nimport_thrift \"s.thrift\"\nX = 3"
  | 4 -> "import \"gone.cinc\"\nimport \"d/c.cconf\"\nX = 4"
  | 5 -> "import \"/m.cinc\"\nimport \"/n.cinc\"\nX = 6"
  | _ -> "X = = 5"

let graph_probes =
  "base.cinc" :: "/base.cinc" :: "gone.cinc" :: "/m.cinc" :: "/n.cinc" :: Array.to_list graph_paths

let depgraph_copy_property =
  let gen =
    let open QCheck2.Gen in
    let n = Array.length graph_paths in
    pair
      (list_repeat n (opt (int_bound 6)))
      (list_size (int_range 1 8) (pair (int_bound (n - 1)) (opt (int_bound 6))))
  in
  QCheck2.Test.make ~name:"an edited depgraph copy equals a fresh index, the original is kept"
    ~count:300 gen (fun (present, edits) ->
      let tree =
        ST.of_alist
          (("base.cinc", "B = 0")
          :: List.concat
               (List.mapi
                  (fun i -> function Some v -> [ graph_paths.(i), graph_source v ] | None -> [])
                  present))
      in
      let dep = Depgraph.of_tree tree in
      let edited = ST.copy tree and clone = Depgraph.copy dep in
      List.iter
        (fun (i, v) ->
          let path = graph_paths.(i) in
          (match v with
          | Some v -> ST.write edited path (graph_source v)
          | None -> ST.remove edited path);
          Depgraph.update_file clone edited path)
        edits;
      let agree dep fresh =
        List.for_all
          (fun p ->
            Depgraph.direct_deps dep p = Depgraph.direct_deps fresh p
            && Depgraph.dependents dep p = Depgraph.dependents fresh p
            && Depgraph.outline dep p = Depgraph.outline fresh p
            && Depgraph.affected_configs dep [ p ] = Depgraph.affected_configs fresh [ p ])
          graph_probes
        &&
        let changed = List.map (fun (i, _) -> graph_paths.(i)) edits in
        Depgraph.affected_configs dep changed = Depgraph.affected_configs fresh changed
      in
      agree clone (Depgraph.of_tree edited) && agree dep (Depgraph.of_tree tree))

(* Random trees of shared CSL modules: nested and cyclic imports,
   missing and unparseable modules, [import_thrift] of good, clashing,
   broken and missing schemas, enum references at a module's top level
   and inside its closures, closures run through [map]/[filter], a name
   that modules bind before and after their imports, and a source
   validator that imports a module. *)
let modgen_thrift =
  [
    ( "s/a.thrift",
      "enum Color { RED = 0, GREEN = 1 }\n\
       struct Box { 1: required i32 v; 2: optional Color c = Color.RED; }" );
    "s/b.thrift", "enum Color { BLUE = 5 }\nenum Size { S = 0, L = 1 }";
    "s/bad.thrift", "struct {";
  ]

let modgen_module_path j = Printf.sprintf "mods/m%d.cinc" j

let modgen_tree =
  let open QCheck2.Gen in
  let p = Printf.sprintf in
  let* k = int_range 1 5 in
  let index = int_range 0 (k - 1) in
  let rare = 1 and usual = 12 in
  let name = map2 (fun j s -> p "N%d_%d" j s) index (frequency [ 4, pure 0; 1, pure 1 ]) in
  let enum_ref = oneofl [ "Color.RED"; "Color.GREEN"; "Color.BLUE"; "Size.L" ] in
  let plain_expr =
    frequency
      [
        usual, map string_of_int (int_range 0 9);
        4, map (p "%s + 1") name;
        3, map (p "len(map(F%d, [1, 2]))") index;
        3, map (p "sum(filter(G%d, range(4)))") index;
        2, pure "SHARED";
        rare, pure "1 / 0";
      ]
  in
  let any_expr =
    frequency [ 4, plain_expr; 1, enum_ref; 1, map (p "H%d(3)") index ]
  in
  let import =
    frequency [ 3 * usual, map modgen_module_path index; rare, pure "mods/gone.cinc" ]
  in
  let lines gens = map (String.concat "\n") (map List.concat (flatten_l gens)) in
  let maybe ratio gen = map Option.to_list (opt ~ratio gen) in
  (* Module [j] imports lower-numbered modules, and now and then any
     module (a cycle, when it points back up) or a missing one. *)
  let module_imports j =
    let* lower =
      if j = 0 then pure []
      else list_size (int_range 0 2) (map modgen_module_path (int_range 0 (j - 1)))
    in
    let* odd = maybe 0.1 (oneof [ map modgen_module_path index; pure "mods/gone.cinc" ]) in
    pure (lower @ odd)
  in
  let thrift =
    frequency
      [ usual, pure "s/a.thrift"; 3, pure "s/b.thrift"; rare, pure "s/bad.thrift";
        rare, pure "s/none.thrift" ]
  in
  let module_source j =
    frequency
      [
        rare, pure "Z = = 1";
        ( usual,
          lines
            [
              maybe 0.3 (pure (p "SHARED = %d" j));
              map (List.map (p "import \"%s\"")) (module_imports j);
              maybe 0.3 (pure (p "SHARED = %d" (10 + j)));
              maybe 0.5 (map (p "import_thrift \"%s\"") thrift);
              maybe 0.8 (map (p "def F%d(x) = x * 2 + %d" j) (int_range 0 9));
              maybe 0.8 (map (p "def G%d(x) = x > %d" j) (int_range 0 3));
              maybe 0.8 (map (p "def H%d(x) = if x > %d then Color.GREEN else Size.S" j) (int_range 0 5));
              map (List.mapi (fun s e -> p "N%d_%d = %s" j s e))
                (list_size (int_range 1 2) any_expr);
              maybe 0.2 (map (p "export %s") plain_expr);
            ] );
      ]
  in
  let config_source =
    let* imports = list_size (int_range 0 3) import in
    let* thrift = opt ~ratio:0.7 thrift in
    let* a = any_expr in
    let* b = any_expr in
    let* typed = bool in
    pure
      (String.concat "\n"
         (List.map (p "import \"%s\"") imports
         @ Option.to_list (Option.map (p "import_thrift \"%s\"") thrift)
         @ [
             (if typed then p "export Box { v = %s, c = %s }" a b
              else p "export { a: %s, b: %s }" a b);
           ]))
  in
  let* modules =
    flatten_l (List.init k (fun j -> map (fun s -> modgen_module_path j, s) (module_source j)))
  in
  let* configs = list_size (int_range 1 6) config_source in
  let* validator = bool in
  pure
    (modgen_thrift @ modules
    @ List.mapi (fun i s -> p "c/c%d.cconf" i, s) configs
    @
    if validator then
      [ "s/Box.thrift-cvalidator", "import \"mods/m0.cinc\"\ndef validate(cfg) = cfg.v >= 0" ]
    else [])

(* Compiling the configs of a tree together, through one module table,
   equals compiling each alone (through a table of its own), in
   artifact bytes, error message, [deps] order and schema hash -- in
   either target order, so that the order in which the shared table
   fills does not matter. *)
let module_table_property =
  QCheck2.Test.make ~name:"one module table per collect equals compiling each config alone"
    ~count:300 ~print:(fun files -> String.concat "\n" (List.map (fun (p, s) -> "-- " ^ p ^ "\n" ^ s) files))
    modgen_tree (fun files ->
      let tree = ST.of_alist files in
      let render = function
        | Ok c ->
            Printf.sprintf "ok %s deps=[%s] schema=%s" c.Compiler.json_text
              (String.concat "," c.Compiler.deps)
              (Option.value ~default:"-" c.Compiler.schema_hash)
        | Error e -> Compiler.stage_name e.Compiler.stage ^ " " ^ e.Compiler.message
      in
      let collected targets =
        let oks, errors = Compiler.compile_targets (Compiler.create tree) targets in
        List.sort compare
          (List.map (fun c -> c.Compiler.config_path, render (Ok c)) oks
          @ List.map (fun e -> e.Compiler.at, render (Error e)) errors)
      in
      let configs = ST.paths_of_kind tree ST.Cconf in
      let alone =
        let compiler = Compiler.create tree in
        List.sort compare (List.map (fun p -> p, render (Compiler.compile compiler p)) configs)
      in
      collected configs = alone && collected (List.rev configs) = alone)

(* Allocation gates.  At one domain the minor words a compile or a
   parse allocates are a function of its input, not of the host, so
   each is bounded at the count this tree measures plus 5%.  The cone
   has cone_edit's shape: 2000 configs over 8 shared modules, config
   [i] importing module [i mod 8], and an edit of module 0 recompiling
   the 250 configs that import it. *)
let cone_module k = Printf.sprintf "modules/m%02d.cinc" k

let cone_tree () =
  ST.of_alist
    (List.init 8 (fun k -> cone_module k, Printf.sprintf "M%02d = %d" k k)
    @ List.init 2000 (fun i ->
          ( Printf.sprintf "svc/d%02d/cfg_%04d.cconf" (i mod 4) i,
            Printf.sprintf
              "import \"%s\"\nPORT = 7000 + %d\nW = M%02d * 3 + %d\nexport { id: %d, port: PORT, weight: W, rev: 0 }"
              (cone_module (i mod 8)) i (i mod 8) i i )))

let minor_words f =
  let before = Gc.minor_words () in
  let result = f () in
  result, Gc.minor_words () -. before

let compile_words_per_config = 1220.0
let parse_words_per_artifact = 70.0

let alloc_gate_tests =
  let within name measured bound =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.1f minor words, bound %.1f" name measured bound)
      true (measured <= bound)
  in
  let cone () =
    let tree = cone_tree () in
    let compiler = Compiler.create tree in
    ignore (Compiler.compile_all compiler);
    ST.write tree (cone_module 0) "M00 = 1000";
    minor_words (fun () -> Compiler.compile_affected compiler ~changed:[ cone_module 0 ])
  in
  [
    Alcotest.test_case "a 250-config cone compile allocates within its bound" `Quick (fun () ->
        let (oks, errors), words = cone () in
        Alcotest.(check (pair int int)) "cone compiled" (250, 0) (List.length oks, List.length errors);
        within "per config" (words /. 250.0) compile_words_per_config);
    Alcotest.test_case "an artifact parse allocates within its bound" `Quick (fun () ->
        let (oks, _), _ = cone () in
        let text = (List.hd oks).Compiler.json_text in
        let _, words =
          minor_words (fun () ->
              for _ = 1 to 100 do
                ignore (Cm_json.Parser.parse text)
              done)
        in
        within ("per parse of " ^ text) (words /. 100.0) parse_words_per_artifact);
  ]

let core_properties =
  List.map QCheck_alcotest.to_alcotest
    [
      spec_roundtrip_property; ui_source_roundtrip_property; risk_monotone_property;
      incr_equivalence_property; closure_key_property; clone_compile_property;
      module_table_property; source_tree_model_property; depgraph_copy_property;
    ]

let () =
  Alcotest.run "core"
    [
      "source_tree", source_tree_tests;
      "validator", validator_tests;
      "compiler", compiler_tests;
      "depgraph", depgraph_tests;
      "review", review_tests;
      "sandcastle", sandcastle_tests;
      "landing_strip", landing_tests;
      "tailer", tailer_tests;
      "canary", canary_tests;
      "pipeline", pipeline_tests;
      "incremental", incremental_tests;
      "client", client_tests;
      "faults", faults_tests;
      "risk", risk_tests;
      "canary_spec", canary_spec_tests;
      "ui", ui_tests;
      "allocation", alloc_gate_tests;
      "properties", core_properties;
    ]
