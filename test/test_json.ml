module Json = Cm_json.Value
module Parser = Cm_json.Parser

let check_parse expected input () =
  match Parser.parse input with
  | Ok v -> Alcotest.(check bool) "equal" true (Json.equal expected v)
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e

let check_error input () =
  match Parser.parse input with
  | Ok _ -> Alcotest.failf "expected parse error for %S" input
  | Error _ -> ()

let scalars =
  [
    Alcotest.test_case "null" `Quick (check_parse Json.Null "null");
    Alcotest.test_case "true" `Quick (check_parse (Json.Bool true) "true");
    Alcotest.test_case "false" `Quick (check_parse (Json.Bool false) " false ");
    Alcotest.test_case "int" `Quick (check_parse (Json.Int 42) "42");
    Alcotest.test_case "negative int" `Quick (check_parse (Json.Int (-17)) "-17");
    Alcotest.test_case "float" `Quick (check_parse (Json.Float 3.5) "3.5");
    Alcotest.test_case "exponent" `Quick (check_parse (Json.Float 1200.0) "1.2e3");
    Alcotest.test_case "string" `Quick (check_parse (Json.String "hi") {|"hi"|});
    Alcotest.test_case "escapes" `Quick
      (check_parse (Json.String "a\"b\\c\nd\te") {|"a\"b\\c\nd\te"|});
    Alcotest.test_case "unicode escape" `Quick
      (check_parse (Json.String "\xc3\xa9") {|"é"|});
    Alcotest.test_case "surrogate pair" `Quick
      (check_parse (Json.String "\xf0\x9f\x98\x80") {|"😀"|});
  ]

let containers =
  [
    Alcotest.test_case "empty list" `Quick (check_parse (Json.List []) "[]");
    Alcotest.test_case "empty object" `Quick (check_parse (Json.Assoc []) "{}");
    Alcotest.test_case "nested" `Quick
      (check_parse
         (Json.obj
            [ "a", Json.List [ Json.Int 1; Json.Int 2 ]; "b", Json.obj [ "c", Json.Null ] ])
         {|{"a": [1, 2], "b": {"c": null}}|});
    Alcotest.test_case "key order preserved" `Quick (fun () ->
        match Parser.parse {|{"z": 1, "a": 2}|} with
        | Ok (Json.Assoc [ ("z", _); ("a", _) ]) -> ()
        | Ok other -> Alcotest.failf "unexpected: %s" (Json.to_compact_string other)
        | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e);
  ]

let errors =
  [
    Alcotest.test_case "trailing garbage" `Quick (check_error "1 2");
    Alcotest.test_case "unterminated string" `Quick (check_error {|"abc|});
    Alcotest.test_case "unterminated object" `Quick (check_error {|{"a": 1|});
    Alcotest.test_case "bare word" `Quick (check_error "nope");
    Alcotest.test_case "missing colon" `Quick (check_error {|{"a" 1}|});
    Alcotest.test_case "empty input" `Quick (check_error "");
    Alcotest.test_case "malformed numbers" `Quick (fun () ->
        List.iter
          (fun input -> check_error input ())
          [ "1e"; "[1e+]"; "-"; "1.5E-"; {|{"a": 2e}|} ]);
    Alcotest.test_case "error position" `Quick (fun () ->
        match Parser.parse "{\n  \"a\": ?\n}" with
        | Error e ->
            Alcotest.(check int) "line" 2 e.Parser.line;
            Alcotest.(check bool) "col > 0" true (e.Parser.col > 0)
        | Ok _ -> Alcotest.fail "expected error");
  ]

let structure =
  [
    Alcotest.test_case "member" `Quick (fun () ->
        let v = Json.obj [ "x", Json.Int 1 ] in
        Alcotest.(check bool) "found" true (Json.member "x" v = Some (Json.Int 1));
        Alcotest.(check bool) "missing" true (Json.member "y" v = None));
    Alcotest.test_case "path" `Quick (fun () ->
        let v = Json.obj [ "a", Json.obj [ "b", Json.Int 7 ] ] in
        Alcotest.(check bool) "deep" true (Json.path [ "a"; "b" ] v = Some (Json.Int 7));
        Alcotest.(check bool) "broken" true (Json.path [ "a"; "c" ] v = None));
    Alcotest.test_case "index" `Quick (fun () ->
        let v = Json.List [ Json.Int 0; Json.Int 1 ] in
        Alcotest.(check bool) "idx" true (Json.index 1 v = Some (Json.Int 1));
        Alcotest.(check bool) "out" true (Json.index 5 v = None));
    Alcotest.test_case "canonicalize sorts keys" `Quick (fun () ->
        let a = Json.obj [ "b", Json.Int 1; "a", Json.Int 2 ] in
        let b = Json.obj [ "a", Json.Int 2; "b", Json.Int 1 ] in
        Alcotest.(check bool) "not equal raw" false (Json.equal a b);
        Alcotest.(check bool) "canonical equal" true (Json.equal_canonical a b);
        Alcotest.(check string) "same hash" (Json.hash a) (Json.hash b));
    Alcotest.test_case "depth" `Quick (fun () ->
        Alcotest.(check int) "scalar" 0 (Json.depth (Json.Int 1));
        Alcotest.(check int) "nested" 2
          (Json.depth (Json.obj [ "a", Json.List [ Json.Int 1 ] ])));
    Alcotest.test_case "size_bytes" `Quick (fun () ->
        Alcotest.(check int) "len" (String.length {|{"a":1}|})
          (Json.size_bytes (Json.obj [ "a", Json.Int 1 ])));
    Alcotest.test_case "fold_scalars" `Quick (fun () ->
        let v = Json.obj [ "a", Json.List [ Json.Int 1; Json.Int 2 ]; "b", Json.Int 3 ] in
        let count = Json.fold_scalars (fun acc _ -> acc + 1) 0 v in
        Alcotest.(check int) "3 scalars" 3 count);
    Alcotest.test_case "compare total order" `Quick (fun () ->
        Alcotest.(check bool) "null < bool" true (Json.compare Json.Null (Json.Bool false) < 0);
        Alcotest.(check bool) "reflexive" true (Json.compare (Json.Int 3) (Json.Int 3) = 0));
  ]

(* qcheck: random JSON round-trips through print + parse. *)
let gen_json =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        pure Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) (int_range (-1000000) 1000000);
        map (fun f -> Json.Float f) (float_range (-1e6) 1e6);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            3, scalar;
            1, map (fun items -> Json.List items) (list_size (int_range 0 4) (self (depth - 1)));
            1,
              map
                (fun pairs ->
                  (* Deduplicate keys to keep equality well-defined. *)
                  let seen = Hashtbl.create 8 in
                  Json.Assoc
                    (List.filter
                       (fun (k, _) ->
                         if Hashtbl.mem seen k then false
                         else begin
                           Hashtbl.replace seen k ();
                           true
                         end)
                       pairs))
                (list_size (int_range 0 4) (pair key (self (depth - 1))));
          ])
    3

let roundtrip_compact =
  QCheck2.Test.make ~name:"print/parse round-trip (compact)" ~count:500 gen_json (fun v ->
      match Parser.parse (Json.to_compact_string v) with
      | Ok parsed -> Json.equal v parsed
      | Error _ -> false)

let roundtrip_pretty =
  QCheck2.Test.make ~name:"print/parse round-trip (pretty)" ~count:300 gen_json (fun v ->
      match Parser.parse (Json.to_pretty_string v) with
      | Ok parsed -> Json.equal v parsed
      | Error _ -> false)

let canonical_idempotent =
  QCheck2.Test.make ~name:"canonicalize idempotent" ~count:300 gen_json (fun v ->
      Json.equal (Json.canonicalize v) (Json.canonicalize (Json.canonicalize v)))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ roundtrip_compact; roundtrip_pretty; canonical_idempotent ]

(* The BENCH_*.json emitters build documents of measured floats; a
   nan/inf (empty percentile, division by zero) must not produce a
   file our own parser rejects.  Non-finite floats serialize as null. *)
let emission =
  let reparses doc =
    match Parser.parse (Json.to_pretty_string doc) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "pretty does not re-parse: %a" Parser.pp_error e
  in
  [
    Alcotest.test_case "non-finite floats serialize as null" `Quick (fun () ->
        Alcotest.(check string) "nan" "null" (Json.to_compact_string (Json.Float nan));
        Alcotest.(check string) "inf" "null"
          (Json.to_compact_string (Json.Float infinity));
        Alcotest.(check string) "-inf" "null"
          (Json.to_compact_string (Json.Float neg_infinity)));
    Alcotest.test_case "bench-shaped documents round-trip" `Quick (fun () ->
        reparses
          (Json.Assoc
             [
               "experiment", Json.String "trace";
               "p50_s", Json.Float 0.190;
               "p99_s", Json.Float nan;
               ( "rows",
                 Json.List
                   [
                     Json.Assoc
                       [
                         "hop", Json.String "zeus.fanout";
                         "ratio", Json.Float infinity;
                         "count", Json.Int 12;
                         "ok", Json.Bool true;
                       ];
                   ] );
             ]))
  ]

let () =
  Alcotest.run "cm_json"
    [
      "scalars", scalars;
      "containers", containers;
      "errors", errors;
      "structure", structure;
      "properties", properties;
      "emission", emission;
    ]
