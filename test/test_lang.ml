module Parser = Cm_lang.Parser
module Eval = Cm_lang.Eval
module Ast = Cm_lang.Ast
module Lexer = Cm_lang.Lexer

(* Evaluate a single root file with an optional module environment:
   its own module table, holding what the file imports. *)
let run ?(files = []) source =
  let modules = Eval.Modules.create ~loader:(fun target -> List.assoc_opt target files) in
  (match Parser.parse source with Ok file -> Eval.Modules.add_imports modules file | Error _ -> ());
  Eval.run ~modules ~path:"main.cconf" ~source

let export_of source ~files =
  match run ~files source with
  | Ok { Eval.export = Some v; _ } -> v
  | Ok { Eval.export = None; _ } -> Alcotest.fail "no export"
  | Error e -> Alcotest.failf "eval error: %a" Eval.pp_error e

let eval_expr source =
  match run ("result = " ^ source ^ "\nexport result") with
  | Ok { Eval.export = Some v; _ } -> v
  | Ok _ -> Alcotest.fail "no export"
  | Error e -> Alcotest.failf "eval error: %a" Eval.pp_error e

let check_value expected source () =
  let v = eval_expr source in
  if not (Eval.value_equal expected v) then
    Alcotest.failf "expected %a, got %a" Eval.pp_value expected Eval.pp_value v

let check_runtime_error source () =
  match run ("result = " ^ source ^ "\nexport result") with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "expected error for %s" source

let expr_tests =
  [
    Alcotest.test_case "arithmetic precedence" `Quick
      (check_value (Eval.V_int 14) "2 + 3 * 4");
    Alcotest.test_case "parens" `Quick (check_value (Eval.V_int 20) "(2 + 3) * 4");
    Alcotest.test_case "unary minus" `Quick (check_value (Eval.V_int (-5)) "-(2 + 3)");
    Alcotest.test_case "float arithmetic" `Quick
      (check_value (Eval.V_float 7.5) "2.5 * 3.0");
    Alcotest.test_case "mixed int float" `Quick (check_value (Eval.V_float 3.5) "3 + 0.5");
    Alcotest.test_case "modulo" `Quick (check_value (Eval.V_int 2) "17 % 5");
    Alcotest.test_case "division by zero" `Quick (check_runtime_error "1 / 0");
    Alcotest.test_case "string concat" `Quick
      (check_value (Eval.V_str "ab") {|"a" + "b"|});
    Alcotest.test_case "string repeat" `Quick (check_value (Eval.V_str "xxx") {|"x" * 3|});
    Alcotest.test_case "list concat" `Quick
      (check_value (Eval.V_list [ Eval.V_int 1; Eval.V_int 2 ]) "[1] + [2]");
    Alcotest.test_case "comparisons" `Quick (check_value (Eval.V_bool true) "3 < 4");
    Alcotest.test_case "string compare" `Quick
      (check_value (Eval.V_bool true) {|"abc" <= "abd"|});
    Alcotest.test_case "equality structural" `Quick
      (check_value (Eval.V_bool true) "[1, 2] == [1, 2]");
    Alcotest.test_case "boolean and short-circuits" `Quick
      (check_value (Eval.V_bool false) "false and (1 / 0 == 0)");
    Alcotest.test_case "boolean or short-circuits" `Quick
      (check_value (Eval.V_bool true) "true or (1 / 0 == 0)");
    Alcotest.test_case "not" `Quick (check_value (Eval.V_bool false) "not true");
    Alcotest.test_case "if expression" `Quick
      (check_value (Eval.V_str "big") {|if 10 > 5 then "big" else "small"|});
    Alcotest.test_case "non-bool condition fails" `Quick
      (check_runtime_error {|if 1 then 2 else 3|});
    Alcotest.test_case "let in" `Quick
      (check_value (Eval.V_int 30) "let x = 10 in x * 3");
    Alcotest.test_case "let shadows" `Quick
      (check_value (Eval.V_int 2) "let x = 1 in let x = 2 in x");
    Alcotest.test_case "list index" `Quick (check_value (Eval.V_int 20) "[10, 20, 30][1]");
    Alcotest.test_case "negative index" `Quick
      (check_value (Eval.V_int 30) "[10, 20, 30][-1]");
    Alcotest.test_case "index out of bounds" `Quick (check_runtime_error "[1][5]");
    Alcotest.test_case "map literal and lookup" `Quick
      (check_value (Eval.V_int 1) {|{a: 1, b: 2}["a"]|});
    Alcotest.test_case "map dot access" `Quick
      (check_value (Eval.V_int 2) "{a: 1, b: 2}.b");
    Alcotest.test_case "string index" `Quick (check_value (Eval.V_str "b") {|"abc"[1]|});
    Alcotest.test_case "unbound variable" `Quick (check_runtime_error "nosuchvar");
  ]

let builtin_tests =
  [
    Alcotest.test_case "len" `Quick (check_value (Eval.V_int 3) "len([1, 2, 3])");
    Alcotest.test_case "len string" `Quick (check_value (Eval.V_int 2) {|len("ab")|});
    Alcotest.test_case "str" `Quick (check_value (Eval.V_str "42") "str(42)");
    Alcotest.test_case "int of string" `Quick (check_value (Eval.V_int 7) {|int("7")|});
    Alcotest.test_case "int parse failure" `Quick (check_runtime_error {|int("x")|});
    Alcotest.test_case "float of int" `Quick (check_value (Eval.V_float 3.0) "float(3)");
    Alcotest.test_case "range" `Quick
      (check_value (Eval.V_list [ Eval.V_int 0; Eval.V_int 1; Eval.V_int 2 ]) "range(3)");
    Alcotest.test_case "range lo hi" `Quick
      (check_value (Eval.V_list [ Eval.V_int 5; Eval.V_int 6 ]) "range(5, 7)");
    Alcotest.test_case "keys values get" `Quick
      (check_value (Eval.V_int 9) {|get({a: 9}, "a", 0)|});
    Alcotest.test_case "get default" `Quick
      (check_value (Eval.V_int 0) {|get({a: 9}, "z", 0)|});
    Alcotest.test_case "sorted" `Quick
      (check_value
         (Eval.V_list [ Eval.V_int 1; Eval.V_int 2; Eval.V_int 3 ])
         "sorted([3, 1, 2])");
    Alcotest.test_case "sum" `Quick (check_value (Eval.V_int 6) "sum([1, 2, 3])");
    Alcotest.test_case "min max abs" `Quick
      (check_value (Eval.V_int 7) "max(min(9, 7), abs(-3))");
    Alcotest.test_case "contains list" `Quick
      (check_value (Eval.V_bool true) "contains([1, 2], 2)");
    Alcotest.test_case "contains string" `Quick
      (check_value (Eval.V_bool true) {|contains("hello", "ell")|});
    Alcotest.test_case "join split" `Quick
      (check_value (Eval.V_str "a-b") {|join("-", split("a b", " "))|});
    Alcotest.test_case "upper lower" `Quick
      (check_value (Eval.V_str "AB") {|upper(lower("AB"))|});
    Alcotest.test_case "merge right bias" `Quick
      (check_value (Eval.V_int 2) {|merge({a: 1}, {a: 2})["a"]|});
    Alcotest.test_case "override on map replaces and adds" `Quick
      (check_value (Eval.V_int 5) {|override({a: 1, b: 2}, {b: 5})["b"]|});
    Alcotest.test_case "override keeps untouched fields" `Quick
      (check_value (Eval.V_int 1) {|override({a: 1, b: 2}, {b: 5})["a"]|});
    Alcotest.test_case "override adds new keys" `Quick
      (check_value (Eval.V_int 9) {|override({a: 1}, {c: 9})["c"]|});
    Alcotest.test_case "override merges nested maps recursively" `Quick
      (check_value (Eval.V_int 1)
         {|override({limits: {cpu: 1, io: 2}}, {limits: {io: 8}})["limits"]["cpu"]|});
    Alcotest.test_case "override non-map second arg fails" `Quick
      (check_runtime_error {|override({a: 1}, 3)|});
    Alcotest.test_case "format directives" `Quick
      (check_value (Eval.V_str "cache listens on 8089 (75% warm)")
         {|format("%s listens on %d (%d%% warm)", "cache", 8089, 75)|});
    Alcotest.test_case "format floats" `Quick
      (check_value (Eval.V_str "ratio 0.25") {|format("ratio %f", 0.25)|});
    Alcotest.test_case "format missing args fails" `Quick
      (check_runtime_error {|format("%s %s", "only-one")|});
    Alcotest.test_case "format extra args fails" `Quick
      (check_runtime_error {|format("%s", 1, 2)|});
    Alcotest.test_case "format type mismatch fails" `Quick
      (check_runtime_error {|format("%d", "not an int")|});
  ]

let program_tests =
  [
    Alcotest.test_case "def and call" `Quick (fun () ->
        let v =
          export_of ~files:[]
            {|
def double(x) = x * 2
result = double(21)
export result
|}
        in
        Alcotest.(check bool) "42" true (Eval.value_equal (Eval.V_int 42) v));
    Alcotest.test_case "default parameters" `Quick (fun () ->
        let v =
          export_of ~files:[]
            {|
def greet(name, prefix = "hello ") = prefix + name
export greet("world")
|}
        in
        Alcotest.(check bool) "hello world" true
          (Eval.value_equal (Eval.V_str "hello world") v));
    Alcotest.test_case "recursion" `Quick (fun () ->
        let v =
          export_of ~files:[]
            {|
def fact(n) = if n <= 1 then 1 else n * fact(n - 1)
export fact(6)
|}
        in
        Alcotest.(check bool) "720" true (Eval.value_equal (Eval.V_int 720) v));
    Alcotest.test_case "forward reference at call time" `Quick (fun () ->
        let v =
          export_of ~files:[]
            {|
def f(x) = g(x) + 1
def g(x) = x * 10
export f(4)
|}
        in
        Alcotest.(check bool) "41" true (Eval.value_equal (Eval.V_int 41) v));
    Alcotest.test_case "higher-order map/filter" `Quick (fun () ->
        let v =
          export_of ~files:[]
            {|
def square(x) = x * x
def big(x) = x > 5
export filter(big, map(square, [1, 2, 3, 4]))
|}
        in
        Alcotest.(check bool) "[9;16]" true
          (Eval.value_equal (Eval.V_list [ Eval.V_int 9; Eval.V_int 16 ]) v));
    Alcotest.test_case "missing argument" `Quick (fun () ->
        match run {|
def f(a, b) = a + b
export f(1)
|} with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "last export wins" `Quick (fun () ->
        let v = export_of ~files:[] {|
export 1
export 2
|} in
        Alcotest.(check bool) "2" true (Eval.value_equal (Eval.V_int 2) v));
  ]

(* --- imports, modules, thrift --------------------------------------- *)

let port_cinc = "APP_PORT = 8089"

let app_files =
  [
    "app_port.cinc", port_cinc;
    ( "shared.cinc",
      {|
import "app_port.cinc"
def mk(name) = { name: name, port: APP_PORT }
|} );
  ]

let import_tests =
  [
    Alcotest.test_case "import shares constants (paper's app_port)" `Quick (fun () ->
        let v =
          export_of ~files:app_files
            {|
import "app_port.cinc"
export APP_PORT
|}
        in
        Alcotest.(check bool) "8089" true (Eval.value_equal (Eval.V_int 8089) v));
    Alcotest.test_case "transitive import" `Quick (fun () ->
        let v =
          export_of ~files:app_files
            {|
import "shared.cinc"
export mk("app")["port"]
|}
        in
        Alcotest.(check bool) "8089" true (Eval.value_equal (Eval.V_int 8089) v));
    Alcotest.test_case "imported exports are ignored" `Quick (fun () ->
        let files = [ "m.cinc", "x = 1\nexport 99" ] in
        let v = export_of ~files {|
import "m.cinc"
export x
|} in
        Alcotest.(check bool) "1 not 99" true (Eval.value_equal (Eval.V_int 1) v));
    Alcotest.test_case "missing import is an error" `Quick (fun () ->
        match run {|
import "nope.cinc"
export 1
|} with
        | Error e -> Alcotest.(check bool) "mentions file" true
            (String.length e.Eval.message > 0)
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "import cycle detected" `Quick (fun () ->
        let files =
          [ "a.cinc", "import \"b.cinc\"\nx = 1"; "b.cinc", "import \"a.cinc\"\ny = 2" ]
        in
        match run ~files {|
import "a.cinc"
export x
|} with
        | Error e -> Alcotest.(check bool) "cycle" true
            (String.length e.Eval.message > 0)
        | Ok _ -> Alcotest.fail "expected cycle error");
    Alcotest.test_case "module evaluated once" `Quick (fun () ->
        (* Diamond import: shared module loaded twice, evaluated once;
           loaded list deduplicates. *)
        let files =
          [
            "base.cinc", "B = 5";
            "left.cinc", "import \"base.cinc\"\nl = B + 1";
            "right.cinc", "import \"base.cinc\"\nr = B + 2";
          ]
        in
        match
          run ~files {|
import "left.cinc"
import "right.cinc"
export l + r
|}
        with
        | Ok { Eval.export = Some v; loaded; _ } ->
            Alcotest.(check bool) "13" true (Eval.value_equal (Eval.V_int 13) v);
            let base_loads =
              List.length (List.filter (fun p -> p = "base.cinc") loaded)
            in
            Alcotest.(check int) "base loaded once" 1 base_loads
        | Ok _ -> Alcotest.fail "no export"
        | Error e -> Alcotest.failf "error: %a" Eval.pp_error e);
    Alcotest.test_case "thrift struct and enum" `Quick (fun () ->
        let files =
          [
            "job.thrift",
            "enum K { A = 0, B = 1 } struct Job { 1: string name; 2: K kind; }";
          ]
        in
        let v =
          export_of ~files
            {|
import_thrift "job.thrift"
export Job { name = "x", kind = K.B }
|}
        in
        match v with
        | Eval.V_struct ("Job", fields) ->
            Alcotest.(check bool) "enum value" true
              (List.assoc "kind" fields = Eval.V_enum ("K", "B"))
        | other -> Alcotest.failf "unexpected %a" Eval.pp_value other);
    Alcotest.test_case "bad enum member fails at eval" `Quick (fun () ->
        let files = [ "e.thrift", "enum K { A = 0 }" ] in
        match run ~files {|
import_thrift "e.thrift"
export K.NOPE
|} with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "config inheritance: derived job overrides base (paper §8)" `Quick
      (fun () ->
        let v =
          export_of ~files:[]
            {|
base = Job { name = "base", memory_mb = 1024, args = ["-v"] }
derived = override(base, { name: "cache", memory_mb: 4096 })
export derived
|}
        in
        match v with
        | Eval.V_struct ("Job", fields) ->
            Alcotest.(check bool) "name overridden" true
              (List.assoc "name" fields = Eval.V_str "cache");
            Alcotest.(check bool) "memory overridden" true
              (List.assoc "memory_mb" fields = Eval.V_int 4096);
            Alcotest.(check bool) "args inherited" true
              (List.assoc "args" fields = Eval.V_list [ Eval.V_str "-v" ])
        | other -> Alcotest.failf "unexpected %a" Eval.pp_value other);
    Alcotest.test_case "struct field access" `Quick (fun () ->
        let v =
          export_of ~files:[]
            {|
cfg = Widget { size = 10, label = "hi" }
export cfg.size
|}
        in
        Alcotest.(check bool) "10" true (Eval.value_equal (Eval.V_int 10) v));
    Alcotest.test_case "the latest binding of a name wins across imports" `Quick (fun () ->
        (* X is bound, then rebound by the import; Y is imported, then
           rebound locally; [f] reads both when called, after both. *)
        let files = [ "m.cinc", "X = 1\nY = 2"; "n.cinc", "import \"m.cinc\"\nY = 3" ] in
        let v =
          export_of ~files
            {|
X = 10
def f() = [X, Y]
import "n.cinc"
Y = 20
export f() + [X, Y]
|}
        in
        let ints = List.map (fun n -> Eval.V_int n) in
        Alcotest.(check bool) "[1, 20, 1, 20]" true
          (Eval.value_equal (Eval.V_list (ints [ 1; 20; 1; 20 ])) v));
  ]

let dep_tests =
  [
    Alcotest.test_case "static imports extracted" `Quick (fun () ->
        let file =
          Parser.parse_exn
            {|
import "a.cinc"
import_thrift "b.thrift"
x = 1
import "c.cinc"
|}
        in
        Alcotest.(check int) "3 imports" 3 (List.length (Ast.imports file)));
    Alcotest.test_case "loaded reflects eval order" `Quick (fun () ->
        let files = [ "a.cinc", "x = 1"; "b.thrift", "struct S { 1: i32 f; }" ] in
        match run ~files {|
import "a.cinc"
import_thrift "b.thrift"
export x
|} with
        | Ok { Eval.loaded; _ } ->
            Alcotest.(check (list string)) "order" [ "a.cinc"; "b.thrift" ] loaded
        | Error e -> Alcotest.failf "error: %a" Eval.pp_error e);
  ]

let error_tests =
  [
    Alcotest.test_case "runtime error carries line" `Quick (fun () ->
        match run "x = 1\ny = 2\nz = nosuch\nexport z" with
        | Error e -> Alcotest.(check int) "line 3" 3 e.Eval.line
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "parse error carries line" `Quick (fun () ->
        match Parser.parse "x = 1\ny = = 2" with
        | Error e -> Alcotest.(check int) "line 2" 2 e.Parser.line
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "unclosed parenthesized import fails" `Quick (fun () ->
        List.iter
          (fun source ->
            match Parser.parse source with
            | Error e -> Alcotest.(check string) source "expected ), found <eof>" e.Parser.message
            | Ok _ -> Alcotest.failf "expected parse error for %S" source)
          [ "import (\"x.cinc\""; "x = 1\nimport_thrift (\"s.thrift\", \"*\"" ]);
    Alcotest.test_case "lex error" `Quick (fun () ->
        match Parser.parse "x = 1 ~ 2" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "malformed numbers" `Quick (fun () ->
        List.iter
          (fun literal ->
            let source = "x = 1\nexport " ^ literal in
            (match Parser.parse source with
            | Error e -> Alcotest.(check int) ("parse line of " ^ literal) 2 e.Parser.line
            | Ok _ -> Alcotest.failf "expected parse error for %s" literal);
            match run source with
            | Error e -> Alcotest.(check int) ("eval line of " ^ literal) 2 e.Eval.line
            | Ok _ -> Alcotest.failf "expected eval error for %s" literal)
          [ "99999999999999999999"; "1e"; "1.5e+"; "2E-" ]);
    Alcotest.test_case "hostile programs fail within the budget" `Quick (fun () ->
        (* Each would run for minutes or exhaust memory unbounded; each
           must come back as an error at its line, in well under 2 s. *)
        List.iter
          (fun (source, line) ->
            let start = Unix.gettimeofday () in
            let result = run source in
            let seconds = Unix.gettimeofday () -. start in
            (match result with
            | Error e -> Alcotest.(check int) ("error line of " ^ source) line e.Eval.line
            | Ok _ -> Alcotest.failf "expected an error from %s" source);
            if seconds >= 2.0 then Alcotest.failf "%s took %.2f s" source seconds)
          [
            "def f(x) = f(x)\nexport f(1)", 1;
            "def f(x) = [f(x)]\nexport f(1)", 1;
            "X = 1\nexport \"a\" * 100000000000", 2;
            "export len(range(100000000000))", 1;
            "export range(-4611686018427387904, 4611686018427387903)", 1;
            "def f(n) = if n == 0 then 0 else f(n - 1) + f(n - 1)\nexport f(60)", 1;
            "def d(l, n) = if n == 0 then l else d(l + l, n - 1)\nexport d([1], 62)", 1;
            "def d(s, n) = if n == 0 then s else d(s + s, n - 1)\nexport d(\"x\", 62)", 1;
            "def d(s, n) = if n == 0 then s else d(join(\"\", [s, s]), n - 1)\nexport d(\"x\", 62)", 1;
            "def loop(n) = loop(n + 1)\nM = map(loop, [1])\nexport M", 1;
            "def d(x, n) = if n == 0 then x else d([x, x], n - 1)\nexport str(d(1, 62))", 2;
            "def d(x, n) = if n == 0 then x else d({a: x, b: x}, n - 1)\nexport format(\"%s\", d(1, 62))", 2;
            "def d(x, n) = if n == 0 then x else d([x, x], n - 1)\nX = d(1, 62)\nexport X == d(1, 62)", 3;
            "def d(x, n) = if n == 0 then x else d([x, x], n - 1)\nX = d(1, 62)\nexport contains([X], d(1, 62))", 3;
          ]);
    Alcotest.test_case "a shared-structure export fails to serialize" `Quick (fun () ->
        (* 62 steps build a list whose tree has 2^62 leaves. *)
        match run "def d(x, n) = if n == 0 then x else d([x, x], n - 1)\nexport d(1, 62)" with
        | Ok { Eval.export = Some v; _ } -> (
            match Eval.to_thrift v with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "expected a serialize error")
        | Ok _ | Error _ -> Alcotest.fail "expected an export");
    Alcotest.test_case "a module that spends its budget fails its importer" `Quick (fun () ->
        match
          run ~files:[ "m.cinc", "X = 1\nY = len(range(100000000000))" ] "import \"m.cinc\"\nexport Y"
        with
        | Error e ->
            Alcotest.(check (pair int string)) "at the import, with the module's line"
              (1, "in m.cinc: line 2: evaluation exceeded its budget of 4000000 steps")
              (e.Eval.line, e.Eval.message)
        | Ok _ -> Alcotest.fail "expected an error");
    Alcotest.test_case "a failing module fails its importer at the import" `Quick (fun () ->
        List.iter
          (fun (what, files, source, expected) ->
            match run ~files source with
            | Error e ->
                Alcotest.(check (pair int string)) what expected (e.Eval.line, e.Eval.message)
            | Ok _ -> Alcotest.failf "%s: expected an error" what)
          [
            ( "own error",
              [ "m.cinc", "X = 1\nY = 2\nZ = nosuch" ],
              "A = 1\nimport \"m.cinc\"\nexport Z",
              (2, "in m.cinc: line 3: unbound variable nosuch") );
            ( "budget error",
              [ "m.cinc", "X = 1\nY = len(range(100000000000))" ],
              "import \"m.cinc\"\nexport Y",
              (1, "in m.cinc: line 2: evaluation exceeded its budget of 4000000 steps") );
            ( "error two imports down",
              [ "m.cinc", "P = 1\nimport \"n.cinc\""; "n.cinc", "Q = nosuch" ],
              "import \"m.cinc\"\nexport P",
              (1, "in m.cinc: line 2: in n.cinc: line 1: unbound variable nosuch") );
          ]);
    Alcotest.test_case "comments ignored" `Quick
      (check_value (Eval.V_int 3) "1 + 2 # trailing\n// whole line\n");
  ]

let conversion_tests =
  [
    Alcotest.test_case "to_thrift round trip" `Quick (fun () ->
        let v =
          Eval.V_struct
            ( "S",
              [
                "a", Eval.V_int 1;
                "b", Eval.V_list [ Eval.V_str "x" ];
                "c", Eval.V_map [ Eval.V_str "k", Eval.V_bool true ];
              ] )
        in
        match Eval.to_thrift v with
        | Ok tv ->
            Alcotest.(check bool) "round trip" true
              (Eval.value_equal v (Eval.of_thrift tv))
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "functions not serializable" `Quick (fun () ->
        match run {|
def f(x) = x
export f
|} with
        | Ok { Eval.export = Some v; _ } -> (
            match Eval.to_thrift v with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "expected serialization failure")
        | Ok _ | Error _ -> Alcotest.fail "expected export of function");
  ]

(* Property: integer arithmetic in CSL matches OCaml. *)
let arith_property =
  QCheck2.Test.make ~name:"CSL integer arithmetic matches OCaml" ~count:300
    QCheck2.Gen.(triple (int_range (-10000) 10000) (int_range (-10000) 10000) (oneofl [ "+"; "-"; "*" ]))
    (fun (a, b, op) ->
      let source = Printf.sprintf "export (%d) %s (%d)" a op b in
      let expected =
        match op with "+" -> a + b | "-" -> a - b | "*" -> a * b | _ -> assert false
      in
      match run source with
      | Ok { Eval.export = Some (Eval.V_int got); _ } -> got = expected
      | _ -> false)

let sorted_property =
  QCheck2.Test.make ~name:"sorted() sorts" ~count:200
    QCheck2.Gen.(list_size (int_range 0 20) (int_range (-100) 100))
    (fun xs ->
      let literal = "[" ^ String.concat ", " (List.map string_of_int xs) ^ "]" in
      match run ("export sorted(" ^ literal ^ ")") with
      | Ok { Eval.export = Some (Eval.V_list got); _ } ->
          let ints =
            List.map (fun v -> match v with Eval.V_int n -> n | _ -> 0) got
          in
          ints = List.sort Int.compare xs
      | _ -> false)

(* The lexer as it was before it stopped allocating per character
   (keywords by [List.mem], two-character operators by [peek_at],
   a fresh string per single-character operator): the oracle of the
   differential property below. *)
module Reference_lexer = struct
  open Lexer

  let keywords =
    [ "import"; "import_thrift"; "def"; "export"; "if"; "then"; "else"; "let"; "in";
      "and"; "or"; "not"; "true"; "false"; "null" ]

  let is_ident_start c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

  let is_ident_char c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

  let is_digit c = match c with '0' .. '9' -> true | _ -> false

  let tokenize input =
    let len = String.length input in
    let tokens = ref [] in
    let pos = ref 0 in
    let line = ref 1 in
    let fail message = raise (Lexer.Lex_error { Lexer.line = !line; message }) in
    let emit tok = tokens := (tok, !line) :: !tokens in
    let peek_at off = if !pos + off < len then Some input.[!pos + off] else None in
    while !pos < len do
      let c = input.[!pos] in
      match c with
      | ' ' | '\t' | '\r' -> incr pos
      | '\n' ->
          incr pos;
          incr line
      | '#' ->
          while !pos < len && input.[!pos] <> '\n' do
            incr pos
          done
      | '/' when peek_at 1 = Some '/' ->
          while !pos < len && input.[!pos] <> '\n' do
            incr pos
          done
      | '"' ->
          incr pos;
          let buf = Buffer.create 16 in
          let closed = ref false in
          while not !closed do
            if !pos >= len then fail "unterminated string"
            else
              match input.[!pos] with
              | '"' ->
                  incr pos;
                  closed := true
              | '\\' ->
                  (match peek_at 1 with
                  | Some 'n' -> Buffer.add_char buf '\n'
                  | Some 't' -> Buffer.add_char buf '\t'
                  | Some '"' -> Buffer.add_char buf '"'
                  | Some '\\' -> Buffer.add_char buf '\\'
                  | Some c -> Buffer.add_char buf c
                  | None -> fail "unterminated escape");
                  pos := !pos + 2
              | '\n' -> fail "newline in string literal"
              | c ->
                  Buffer.add_char buf c;
                  incr pos
          done;
          emit (Str (Buffer.contents buf))
      | c when is_digit c ->
          let start = !pos in
          while !pos < len && is_digit input.[!pos] do
            incr pos
          done;
          let is_float = ref false in
          if !pos < len && input.[!pos] = '.' && !pos + 1 < len && is_digit input.[!pos + 1]
          then begin
            is_float := true;
            incr pos;
            while !pos < len && is_digit input.[!pos] do
              incr pos
            done
          end;
          if !pos < len && (input.[!pos] = 'e' || input.[!pos] = 'E') then begin
            is_float := true;
            incr pos;
            if !pos < len && (input.[!pos] = '+' || input.[!pos] = '-') then incr pos;
            while !pos < len && is_digit input.[!pos] do
              incr pos
            done
          end;
          let text = String.sub input start (!pos - start) in
          let number =
            if !is_float then Option.map (fun f -> Float f) (float_of_string_opt text)
            else Option.map (fun n -> Int n) (int_of_string_opt text)
          in
          (match number with
          | Some tok -> emit tok
          | None -> fail (Printf.sprintf "invalid number %s" text))
      | c when is_ident_start c ->
          let start = !pos in
          while !pos < len && is_ident_char input.[!pos] do
            incr pos
          done;
          let text = String.sub input start (!pos - start) in
          if List.mem text keywords then emit (Keyword text) else emit (Ident text)
      | '=' when peek_at 1 = Some '=' ->
          pos := !pos + 2;
          emit (Op "==")
      | '!' when peek_at 1 = Some '=' ->
          pos := !pos + 2;
          emit (Op "!=")
      | '<' when peek_at 1 = Some '=' ->
          pos := !pos + 2;
          emit (Op "<=")
      | '>' when peek_at 1 = Some '=' ->
          pos := !pos + 2;
          emit (Op ">=")
      | '=' | '<' | '>' | '+' | '-' | '*' | '/' | '%' | '.' | ',' | ':'
      | '(' | ')' | '[' | ']' | '{' | '}' ->
          incr pos;
          emit (Op (String.make 1 c))
      | c -> fail (Printf.sprintf "unexpected character %c" c)
    done;
    emit Eof;
    Array.of_list (List.rev !tokens)
end

(* What a tokenization ends in: its tokens and lines, its [Lex_error],
   or any other exception. *)
let lex_outcome tokenize input =
  match tokenize input with
  | tokens -> Ok tokens
  | exception Lexer.Lex_error e -> Error (Printf.sprintf "lex error %d: %s" e.Lexer.line e.Lexer.message)
  | exception exn -> Error (Printexc.to_string exn)

let valid_csl =
  [|
    "import \"modules/a.cinc\"\nimport_thrift \"s.thrift\"\nX = 1 + 2 * 3 % 4\nexport { a: X }";
    "def f(a, b = 1) = if a >= b and not (a == b) then a - b else b / 2 // note\nY = f(3)";
    "Z = [1.5, 2e3, 7E-2, \"s\\n\\t\\\"q\\\\\"]\n# comment\nW = Z[0] != Z[1] or Z[2] <= 1";
    "export Job { name = \"x\", memory_mb = 64, kind = JobKind.SERVICE }\nlet = in true false null";
    "M = {k: 1, \"j\": [], }\nN = M.k < 3 > 1\nO = -x.y(1)[2]";
  |]

(* Random bytes drawn mostly from the characters CSL gives meaning to,
   valid sources with a few bytes overwritten, inserted or cut, and
   runs of CSL fragments. *)
let lexer_input_gen =
  let open QCheck2.Gen in
  let alphabet = "abzAZ_09.eE+-*/%=!<>(),:[]{}\"\\#\n\t\r ~&\000\255" in
  let csl_char = frequency [ 6, map (String.get alphabet) (int_bound (String.length alphabet - 1)); 1, char ] in
  let noise = string_size ~gen:csl_char (int_range 0 60) in
  let mutated =
    let* source = oneofa valid_csl in
    let* edits = list_size (int_range 1 4) (triple (int_bound 2) nat csl_char) in
    pure
      (List.fold_left
         (fun s (kind, at, c) ->
           let n = String.length s in
           let i = if n = 0 then 0 else at mod n in
           match kind with
           | 0 -> String.mapi (fun j x -> if j = i then c else x) s
           | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
           | _ -> if n = 0 then s else String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1))
         source edits)
  in
  (* Fragments run together with no separator, so every operator and
     literal also meets every other one and the end of input. *)
  let fragments =
    [| "="; "=="; "!"; "!="; "<"; "<="; ">"; ">="; "/"; "//"; "#"; "*"; "%"; "."; "\"";
       "\\"; "\\n"; "1"; "07"; "2.5"; "1e3"; "3E"; "1.x"; "x"; "_a1"; "import"; "in";
       "nullx"; "\n"; " "; "\r"; "("; "]"; "{"; ":"; "," |]
  in
  let soup = map (String.concat "") (list_size (int_range 0 12) (oneofa fragments)) in
  (* More than 1 KB of sources and dense fragment runs, which outgrow
     the lexer's first token arrays, ending in a keyword, an operator
     or half of one that meets the end of input. *)
  let endings =
    [| "import"; "import_thrift"; "def"; "export"; "if"; "then"; "else"; "let"; "in"; "and";
       "or"; "not"; "true"; "false"; "null"; "=="; "!="; "<="; ">="; "="; "!"; "<"; ">"; "/" |]
  in
  let long =
    let* parts =
      list_size (int_range 16 40)
        (frequency [ 2, oneofa valid_csl; 1, map (String.concat "") (list_repeat 40 (oneofa fragments)) ])
    in
    let* ending = oneofa endings in
    pure (String.concat "\n" parts ^ ending)
  in
  frequency [ 1, noise; 2, mutated; 1, oneofa valid_csl; 2, soup; 1, long ]

let lexer_differential_property =
  (* The tokens through the first [Eof], each with its line, once the
     slots after it are checked to repeat it. *)
  let tokenize input =
    let tokens, lines = Lexer.tokenize input in
    let n = Array.length tokens in
    let stop = ref 0 in
    while tokens.(!stop) <> Lexer.Eof do
      incr stop
    done;
    for i = !stop to n - 1 do
      if tokens.(i) <> Lexer.Eof || lines.(i) <> lines.(!stop) then failwith "padding"
    done;
    if Array.length lines <> n then failwith "lengths";
    Array.combine (Array.sub tokens 0 (!stop + 1)) (Array.sub lines 0 (!stop + 1))
  in
  QCheck2.Test.make ~name:"lexer tokens, lines and errors equal the reference lexer" ~count:2000
    ~print:(Printf.sprintf "%S") lexer_input_gen (fun input ->
      compare (lex_outcome tokenize input) (lex_outcome Reference_lexer.tokenize input) = 0)

(* [merge] and map-over-map [override] as they were before they looked
   keys up instead of scanning: the oracle of the property below. *)
module Reference_keys = struct
  let mem k pairs = List.exists (fun (k2, _) -> Eval.value_equal k k2) pairs

  let merge a b =
    match a, b with
    | Eval.V_map a, Eval.V_map b -> Eval.V_map (List.filter (fun (k, _) -> not (mem k b)) a @ b)
    | _ -> invalid_arg "merge"

  let rec override base over =
    match base, over with
    | Eval.V_map base_pairs, Eval.V_map over_pairs ->
        let replaced =
          List.map
            (fun (k, old) ->
              match List.find_opt (fun (k2, _) -> Eval.value_equal k k2) over_pairs with
              | Some (_, v) -> k, override old v
              | None -> k, old)
            base_pairs
        in
        Eval.V_map (replaced @ List.filter (fun (k, _) -> not (mem k base_pairs)) over_pairs)
    | _ -> over
end

let builtin name =
  match run ("export " ^ name) with
  | Ok { Eval.export = Some (Eval.V_builtin (_, fn)); _ } ->
      fun args ->
        let runtime = { Eval.call = (fun _ _ -> Eval.V_null); charge = (fun _ _ -> ()) } in
        fn runtime { Ast.line = 1 } args
  | _ -> failwith ("no builtin " ^ name)

(* Structural identity: floats by their bits, functions by name. *)
let rec same a b =
  let open Eval in
  let pairs_same xs ys =
    List.length xs = List.length ys
    && List.for_all2 (fun (k1, v1) (k2, v2) -> same k1 k2 && same v1 v2) xs ys
  in
  match a, b with
  | V_float x, V_float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | V_list xs, V_list ys -> List.length xs = List.length ys && List.for_all2 same xs ys
  | V_map xs, V_map ys -> pairs_same xs ys
  | V_struct (n1, f1), V_struct (n2, f2) ->
      n1 = n2 && pairs_same (List.map (fun (k, v) -> V_str k, v) f1)
                   (List.map (fun (k, v) -> V_str k, v) f2)
  | V_builtin (n1, _), V_builtin (n2, _) -> n1 = n2
  | (V_null | V_bool _ | V_int _ | V_str _ | V_enum _), _ -> a = b
  | _ -> false

(* Property: [merge] and [override] of maps with keys of every kind --
   ints and floats that compare across, -0.0, NaN, ints beyond 2^53
   that share a float, compound keys, and now and then a function key,
   which fails any comparison -- give what the scans gave: the same
   map, or the same error. *)
let key_lookup_property =
  let fn_key = match run "export len" with Ok { Eval.export = Some v; _ } -> v | _ -> Eval.V_null in
  let merge = builtin "merge" and override = builtin "override" in
  let open Eval in
  let scalar_keys =
    [| V_int 0; V_int 1; V_int 2; V_float 1.0; V_float 0.0; V_float (-0.0); V_float Float.nan;
       V_float 2.5; V_int (1 lsl 53); V_int ((1 lsl 53) + 1); V_float (2.0 ** 53.0);
       V_str "a"; V_str "b"; V_bool true; V_bool false; V_null; V_enum ("E", "X") |]
  in
  let compound_keys =
    [| V_list [ V_int 1 ]; V_list [ V_float 1.0 ]; V_map [ V_str "x", V_int 1 ];
       V_struct ("S", [ "f", V_int 1 ]) |]
  in
  let gen =
    let open QCheck2.Gen in
    let key =
      frequency
        [ 12, oneofa scalar_keys; 3, oneofa compound_keys; 1, pure fn_key ]
    in
    let leaf = map (fun n -> V_int n) (int_range 0 9) in
    let value =
      frequency
        [ 3, leaf; 1, map (fun pairs -> V_map pairs) (list_size (int_range 0 4) (pair key leaf)) ]
    in
    let map_gen = map (fun pairs -> V_map pairs) (list_size (int_range 0 8) (pair key value)) in
    pair map_gen map_gen
  in
  let outcome f = match f () with v -> Ok v | exception Runtime_error e -> Error e.message in
  let agree got want =
    match got, want with
    | Ok a, Ok b -> same a b
    | Error a, Error b -> a = b
    | _ -> false
  in
  QCheck2.Test.make ~name:"merge and override by key lookup equal the scans" ~count:1000 gen
    (fun (a, b) ->
      agree (outcome (fun () -> merge [ a; b ])) (outcome (fun () -> Reference_keys.merge a b))
      && agree
           (outcome (fun () -> override [ a; b ]))
           (outcome (fun () -> Reference_keys.override a b)))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ arith_property; sorted_property; lexer_differential_property; key_lookup_property ]

let () =
  Alcotest.run "cm_lang"
    [
      "expressions", expr_tests;
      "builtins", builtin_tests;
      "programs", program_tests;
      "imports", import_tests;
      "dependencies", dep_tests;
      "errors", error_tests;
      "conversion", conversion_tests;
      "properties", properties;
    ]
