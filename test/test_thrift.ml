module Schema = Cm_thrift.Schema
module Value = Cm_thrift.Value
module Idl = Cm_thrift.Idl
module Check = Cm_thrift.Check
module Codec = Cm_thrift.Codec
module Compat = Cm_thrift.Compat

let job_idl =
  {|
// The paper's Figure 2 schema.
enum JobKind { BATCH = 0, SERVICE = 1 }
struct Job {
  1: required string name;
  2: optional i32 memory_mb = 1024;
  3: list<string> args;
  4: map<string, i64> limits;
  5: JobKind kind = JobKind.SERVICE;
}
|}

let job_schema () = Idl.parse_exn job_idl

let idl_tests =
  [
    Alcotest.test_case "parse struct and enum" `Quick (fun () ->
        let schema = job_schema () in
        Alcotest.(check (list string)) "structs" [ "Job" ] (Schema.struct_names schema);
        let job = Option.get (Schema.find_struct schema "Job") in
        Alcotest.(check int) "5 fields" 5 (List.length job.Schema.fields);
        let kind = Option.get (Schema.find_enum schema "JobKind") in
        Alcotest.(check (option int)) "SERVICE=1" (Some 1) (Schema.enum_member kind "SERVICE");
        Alcotest.(check (option string)) "0=BATCH" (Some "BATCH") (Schema.enum_of_int kind 0));
    Alcotest.test_case "field attributes" `Quick (fun () ->
        let schema = job_schema () in
        let job = Option.get (Schema.find_struct schema "Job") in
        let name = List.find (fun f -> f.Schema.fname = "name") job.Schema.fields in
        Alcotest.(check bool) "required" true (name.Schema.freq = Schema.Required);
        let memory = List.find (fun f -> f.Schema.fname = "memory_mb") job.Schema.fields in
        Alcotest.(check bool) "default" true (memory.Schema.fdefault = Some (Value.Int 1024)));
    Alcotest.test_case "comments all forms" `Quick (fun () ->
        let schema =
          Idl.parse_exn
            "# hash\n// slash\n/* block\n comment */ struct S { 1: i32 x; }"
        in
        Alcotest.(check bool) "parsed" true (Schema.find_struct schema "S" <> None));
    Alcotest.test_case "enum auto numbering" `Quick (fun () ->
        let schema = Idl.parse_exn "enum E { A, B, C = 10, D }" in
        let e = Option.get (Schema.find_enum schema "E") in
        Alcotest.(check (list (pair string int))) "members"
          [ "A", 0; "B", 1; "C", 10; "D", 11 ]
          e.Schema.members);
    Alcotest.test_case "duplicate field id rejected" `Quick (fun () ->
        match Idl.parse "struct S { 1: i32 a; 1: i32 b; }" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "duplicate field name rejected" `Quick (fun () ->
        match Idl.parse "struct S { 1: i32 a; 2: i64 a; }" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "error carries line" `Quick (fun () ->
        match Idl.parse "struct S {\n 1: wonky;\n}" with
        | Error e -> Alcotest.(check bool) "line >= 2" true (e.Idl.line >= 2)
        | Ok _ -> Alcotest.fail "expected error");
    Alcotest.test_case "malformed numeric defaults rejected" `Quick (fun () ->
        List.iter
          (fun default ->
            match Idl.parse (Printf.sprintf "struct S {\n 1: double x = %s;\n}" default) with
            | Error e -> Alcotest.(check int) ("line of " ^ default) 2 e.Idl.line
            | Ok _ -> Alcotest.failf "expected error for default %s" default)
          [ "1e"; "1.5e+"; "-"; "1-2"; "[1, 2E]" ]);
    Alcotest.test_case "nested containers" `Quick (fun () ->
        let schema = Idl.parse_exn "struct S { 1: map<string, list<i32>> m; }" in
        let s = Option.get (Schema.find_struct schema "S") in
        match (List.hd s.Schema.fields).Schema.fty with
        | Schema.Map (Schema.Str, Schema.List Schema.I32) -> ()
        | other -> Alcotest.failf "bad type %s" (Schema.ty_to_string other));
  ]

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "check error: %a" Check.pp_error e

let check_tests =
  [
    Alcotest.test_case "defaults filled and fields ordered" `Quick (fun () ->
        let schema = job_schema () in
        let v = Value.Struct ("Job", [ "name", Value.Str "cache" ]) in
        let normalized = ok_or_fail (Check.check_struct schema "Job" v) in
        Alcotest.(check bool) "memory default" true
          (Value.field "memory_mb" normalized = Some (Value.Int 1024));
        Alcotest.(check bool) "kind default" true
          (Value.field "kind" normalized = Some (Value.Enum ("JobKind", "SERVICE"))));
    Alcotest.test_case "missing required fails" `Quick (fun () ->
        let schema = job_schema () in
        match Check.check_struct schema "Job" (Value.Struct ("Job", [])) with
        | Error e ->
            Alcotest.(check bool) "mentions name" true (String.length e.Check.context > 0)
        | Ok _ -> Alcotest.fail "expected failure");
    Alcotest.test_case "unknown field fails" `Quick (fun () ->
        let schema = job_schema () in
        let v = Value.Struct ("Job", [ "name", Value.Str "x"; "typo", Value.Int 1 ]) in
        match Check.check_struct schema "Job" v with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected failure");
    Alcotest.test_case "i32 range enforced" `Quick (fun () ->
        let schema = job_schema () in
        let v =
          Value.Struct ("Job", [ "name", Value.Str "x"; "memory_mb", Value.Int 3_000_000_000 ])
        in
        match Check.check_struct schema "Job" v with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected failure");
    Alcotest.test_case "enum accepts int, string, symbolic" `Quick (fun () ->
        let schema = job_schema () in
        let base = [ "name", Value.Str "x" ] in
        let with_kind kind = Value.Struct ("Job", base @ [ "kind", kind ]) in
        List.iter
          (fun kind ->
            let v = ok_or_fail (Check.check_struct schema "Job" (with_kind kind)) in
            Alcotest.(check bool) "normalized" true
              (Value.field "kind" v = Some (Value.Enum ("JobKind", "BATCH"))))
          [ Value.Int 0; Value.Str "BATCH"; Value.Enum ("JobKind", "BATCH") ]);
    Alcotest.test_case "bad enum member fails" `Quick (fun () ->
        let schema = job_schema () in
        let v = Value.Struct ("Job", [ "name", Value.Str "x"; "kind", Value.Str "NOPE" ]) in
        match Check.check_struct schema "Job" v with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected failure");
    Alcotest.test_case "int promoted to double" `Quick (fun () ->
        let schema = Idl.parse_exn "struct S { 1: double x; }" in
        let v =
          ok_or_fail (Check.check_struct schema "S" (Value.Struct ("S", [ "x", Value.Int 3 ])))
        in
        Alcotest.(check bool) "promoted" true (Value.field "x" v = Some (Value.Double 3.0)));
    Alcotest.test_case "list element error has context" `Quick (fun () ->
        let schema = Idl.parse_exn "struct S { 1: list<i32> xs; }" in
        let v = Value.Struct ("S", [ "xs", Value.List [ Value.Int 1; Value.Str "no" ] ]) in
        match Check.check_struct schema "S" v with
        | Error e ->
            Alcotest.(check bool) "has index" true (String.length e.Check.context > 3)
        | Ok _ -> Alcotest.fail "expected failure");
  ]

let codec_tests =
  [
    Alcotest.test_case "encode struct shape" `Quick (fun () ->
        let schema = job_schema () in
        let v =
          ok_or_fail
            (Check.check_struct schema "Job"
               (Value.Struct
                  ( "Job",
                    [
                      "name", Value.Str "cache";
                      "args", Value.List [ Value.Str "-v" ];
                      "limits", Value.Map [ Value.Str "cpu", Value.Int 4 ];
                    ] )))
        in
        let json = Codec.encode v in
        Alcotest.(check string) "json"
          {|{"name":"cache","memory_mb":1024,"args":["-v"],"limits":{"cpu":4},"kind":"SERVICE"}|}
          (Cm_json.Value.to_compact_string json));
    Alcotest.test_case "decode round trip" `Quick (fun () ->
        let schema = job_schema () in
        let v =
          ok_or_fail
            (Check.check_struct schema "Job"
               (Value.Struct ("Job", [ "name", Value.Str "a"; "memory_mb", Value.Int 5 ])))
        in
        let json = Codec.encode v in
        match Codec.decode_struct schema "Job" json with
        | Ok back -> Alcotest.(check bool) "equal" true (Value.equal v back)
        | Error e -> Alcotest.failf "decode: %a" Codec.pp_error e);
    Alcotest.test_case "non-string-keyed map as pairs" `Quick (fun () ->
        let schema = Idl.parse_exn "struct S { 1: map<i32, string> m; }" in
        let v =
          ok_or_fail
            (Check.check_struct schema "S"
               (Value.Struct ("S", [ "m", Value.Map [ Value.Int 1, Value.Str "one" ] ])))
        in
        let json = Codec.encode v in
        match Codec.decode_struct schema "S" json with
        | Ok back -> Alcotest.(check bool) "equal" true (Value.equal v back)
        | Error e -> Alcotest.failf "decode: %a" Codec.pp_error e);
    Alcotest.test_case "old reader ignores new fields" `Quick (fun () ->
        let old_schema = Idl.parse_exn "struct S { 1: required i32 x; }" in
        let json =
          Cm_json.Value.obj [ "x", Cm_json.Value.Int 1; "extra", Cm_json.Value.Bool true ]
        in
        match Codec.decode_struct old_schema "S" json with
        | Ok v -> Alcotest.(check bool) "x" true (Value.field "x" v = Some (Value.Int 1))
        | Error e -> Alcotest.failf "decode: %a" Codec.pp_error e);
    Alcotest.test_case "old reader missing required field fails (6.4 incident)" `Quick
      (fun () ->
        (* Old client code expects field y; the new writer dropped it. *)
        let old_schema =
          Idl.parse_exn "struct S { 1: required i32 x; 2: required i32 y; }"
        in
        let json = Cm_json.Value.obj [ "x", Cm_json.Value.Int 1 ] in
        match Codec.decode_struct old_schema "S" json with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected failure");
  ]

let compat_tests =
  [
    Alcotest.test_case "identical schemas compatible" `Quick (fun () ->
        let s = job_schema () in
        Alcotest.(check bool) "compat" true (Compat.is_backward_compatible ~reader:s ~writer:s);
        Alcotest.(check string) "same hash" (Schema.hash s) (Schema.hash (job_schema ())));
    Alcotest.test_case "added optional field is compatible" `Quick (fun () ->
        let reader = Idl.parse_exn "struct S { 1: required i32 x; }" in
        let writer = Idl.parse_exn "struct S { 1: required i32 x; 2: optional string y; }" in
        Alcotest.(check bool) "compat" true (Compat.is_backward_compatible ~reader ~writer);
        Alcotest.(check bool) "hash differs" true (Schema.hash reader <> Schema.hash writer));
    Alcotest.test_case "dropped required field breaks" `Quick (fun () ->
        let reader = Idl.parse_exn "struct S { 1: required i32 x; 2: required i32 y; }" in
        let writer = Idl.parse_exn "struct S { 1: required i32 x; }" in
        Alcotest.(check bool) "broken" false (Compat.is_backward_compatible ~reader ~writer));
    Alcotest.test_case "type change breaks" `Quick (fun () ->
        let reader = Idl.parse_exn "struct S { 1: i32 x; }" in
        let writer = Idl.parse_exn "struct S { 1: string x; }" in
        Alcotest.(check bool) "broken" false (Compat.is_backward_compatible ~reader ~writer));
    Alcotest.test_case "dropped field with default is fine" `Quick (fun () ->
        let reader = Idl.parse_exn "struct S { 1: i32 x = 5; }" in
        let writer = Idl.parse_exn "struct S { 2: i32 y; }" in
        Alcotest.(check bool) "compat" true (Compat.is_backward_compatible ~reader ~writer);
        Alcotest.(check bool) "reported as info" true
          (List.length (Compat.can_read ~reader ~writer) > 0));
    Alcotest.test_case "enum value change breaks" `Quick (fun () ->
        let reader = Idl.parse_exn "enum E { A = 0, B = 1 }" in
        let writer = Idl.parse_exn "enum E { A = 0, B = 2 }" in
        Alcotest.(check bool) "broken" false (Compat.is_backward_compatible ~reader ~writer));
    Alcotest.test_case "missing struct breaks" `Quick (fun () ->
        let reader = Idl.parse_exn "struct S { 1: i32 x; }" in
        let writer = Idl.parse_exn "struct T { 1: i32 x; }" in
        Alcotest.(check bool) "broken" false (Compat.is_backward_compatible ~reader ~writer));
  ]

let typedef_tests =
  [
    Alcotest.test_case "typedef aliases resolve in check and codec" `Quick (fun () ->
        let schema =
          Idl.parse_exn
            "typedef i64 UserId;\ntypedef list<UserId> Cohort;\nstruct S { 1: UserId owner; 2: Cohort members; }"
        in
        let v =
          Value.Struct
            ("S", [ "owner", Value.Int 42; "members", Value.List [ Value.Int 1; Value.Int 2 ] ])
        in
        let normalized = ok_or_fail (Check.check_struct schema "S" v) in
        let json = Codec.encode normalized in
        match Codec.decode_struct schema "S" json with
        | Ok back -> Alcotest.(check bool) "round trip" true (Value.equal normalized back)
        | Error e -> Alcotest.failf "decode: %a" Codec.pp_error e);
    Alcotest.test_case "typedef to struct" `Quick (fun () ->
        let schema =
          Idl.parse_exn "struct Inner { 1: i32 x; }\ntypedef Inner Alias;\nstruct S { 1: Alias a; }"
        in
        let v =
          Value.Struct ("S", [ "a", Value.Struct ("Inner", [ "x", Value.Int 1 ]) ])
        in
        match Check.check_struct schema "S" v with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "check: %a" Check.pp_error e);
    Alcotest.test_case "typedef affects schema hash" `Quick (fun () ->
        let a = Idl.parse_exn "typedef i64 UserId; struct S { 1: UserId u; }" in
        let b = Idl.parse_exn "typedef i32 UserId; struct S { 1: UserId u; }" in
        Alcotest.(check bool) "different" true (Schema.hash a <> Schema.hash b));
    Alcotest.test_case "self-referential typedef does not loop" `Quick (fun () ->
        let schema = Idl.parse_exn "typedef Loop Loop; struct S { 1: Loop x; }" in
        match Check.check_struct schema "S" (Value.Struct ("S", [ "x", Value.Int 1 ])) with
        | Error _ -> () (* resolves to the unknown alias and fails cleanly *)
        | Ok _ -> Alcotest.fail "expected failure");
  ]

let merge_tests =
  [
    Alcotest.test_case "merge later wins" `Quick (fun () ->
        let a = Idl.parse_exn "struct S { 1: i32 x; }" in
        let b = Idl.parse_exn "struct S { 1: i64 x; } struct T { 1: i32 y; }" in
        let merged = Schema.merge a b in
        let s = Option.get (Schema.find_struct merged "S") in
        Alcotest.(check bool) "b's S wins" true
          ((List.hd s.Schema.fields).Schema.fty = Schema.I64);
        Alcotest.(check bool) "T present" true (Schema.find_struct merged "T" <> None));
  ]

(* Property: random typed values round-trip encode/decode under a fixed
   rich schema. *)
let rich_schema =
  Idl.parse_exn
    {|
enum Color { RED = 0, GREEN = 1, BLUE = 2 }
struct Inner { 1: i32 a; 2: string b; }
struct Rich {
  1: required bool flag;
  2: i32 small;
  3: i64 big;
  4: double ratio;
  5: string label;
  6: list<i32> nums;
  7: map<string, string> tags;
  8: Color color;
  9: Inner inner;
}
|}

let gen_rich =
  let open QCheck2.Gen in
  let str = string_size ~gen:(char_range 'a' 'z') (int_range 0 8) in
  let inner =
    map2
      (fun a b -> Value.Struct ("Inner", [ "a", Value.Int a; "b", Value.Str b ]))
      (int_range (-1000) 1000) str
  in
  let color = map (fun c -> Value.Enum ("Color", c)) (oneofl [ "RED"; "GREEN"; "BLUE" ]) in
  let fields =
    [
      map (fun b -> "flag", Value.Bool b) bool;
      map (fun n -> "small", Value.Int n) (int_range (-1000000) 1000000);
      map (fun n -> "big", Value.Int n) (int_range min_int max_int);
      map (fun f -> "ratio", Value.Double f) (float_range (-1e9) 1e9);
      map (fun s -> "label", Value.Str s) str;
      map
        (fun ns -> "nums", Value.List (List.map (fun n -> Value.Int n) ns))
        (list_size (int_range 0 5) (int_range 0 100));
      map
        (fun pairs ->
          let seen = Hashtbl.create 8 in
          let unique =
            List.filter
              (fun (k, _) ->
                if Hashtbl.mem seen k then false
                else begin
                  Hashtbl.replace seen k ();
                  true
                end)
              pairs
          in
          "tags", Value.Map (List.map (fun (k, v) -> Value.Str k, Value.Str v) unique))
        (list_size (int_range 0 4) (pair str str));
      map (fun c -> "color", c) color;
      map (fun i -> "inner", i) inner;
    ]
  in
  map (fun fields -> Value.Struct ("Rich", fields)) (flatten_l fields)

let codec_roundtrip =
  QCheck2.Test.make ~name:"check + encode + decode round-trips" ~count:300 gen_rich (fun v ->
      match Check.check_struct rich_schema "Rich" v with
      | Error _ -> false
      | Ok normalized -> (
          let json = Codec.encode normalized in
          match Codec.decode_struct rich_schema "Rich" json with
          | Ok back -> Value.equal normalized back
          | Error _ -> false))

let schema_hash_sensitivity =
  QCheck2.Test.make ~name:"schema hash changes when a default changes" ~count:50
    QCheck2.Gen.(int_range 1 10000)
    (fun n ->
      let s1 = Idl.parse_exn (Printf.sprintf "struct S { 1: i32 x = %d; }" n) in
      let s2 = Idl.parse_exn (Printf.sprintf "struct S { 1: i32 x = %d; }" (n + 1)) in
      Schema.hash s1 <> Schema.hash s2)

let properties =
  List.map QCheck_alcotest.to_alcotest [ codec_roundtrip; schema_hash_sensitivity ]

let () =
  Alcotest.run "cm_thrift"
    [
      "idl", idl_tests;
      "check", check_tests;
      "codec", codec_tests;
      "compat", compat_tests;
      "typedefs", typedef_tests;
      "merge", merge_tests;
      "properties", properties;
    ]
