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

(* The reader as it was before it stopped boxing bytes (a [char
   option] per byte inspected, a [Buffer] per string): the oracle of
   the differential property below. *)
module Reference_parser = struct
  exception Parse_error of Parser.error

  type state = { input : string; mutable pos : int; mutable line : int; mutable bol : int }

  let fail st message =
    raise (Parse_error { Parser.line = st.line; col = st.pos - st.bol + 1; message })

  let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

  let advance st =
    (match peek st with
    | Some '\n' ->
        st.line <- st.line + 1;
        st.bol <- st.pos + 1
    | Some _ | None -> ());
    st.pos <- st.pos + 1

  let rec skip_ws st =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance st;
        skip_ws st
    | Some _ | None -> ()

  let expect st c =
    match peek st with
    | Some found when found = c -> advance st
    | Some found -> fail st (Printf.sprintf "expected %c, found %c" c found)
    | None -> fail st (Printf.sprintf "expected %c, found end of input" c)

  let expect_keyword st keyword value =
    let len = String.length keyword in
    if st.pos + len <= String.length st.input && String.sub st.input st.pos len = keyword
    then begin
      for _ = 1 to len do
        advance st
      done;
      value
    end
    else fail st (Printf.sprintf "expected %s" keyword)

  let hex_digit st c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "invalid hex digit in \\u escape"

  (* Encode a Unicode code point as UTF-8 into [buf]. *)
  let add_utf8 buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end

  let parse_hex4 st =
    let code = ref 0 in
    for _ = 1 to 4 do
      match peek st with
      | Some c ->
          code := (!code * 16) + hex_digit st c;
          advance st
      | None -> fail st "unterminated \\u escape"
    done;
    !code

  let parse_string_body st =
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek st with
      | None -> fail st "unterminated string"
      | Some '"' ->
          advance st;
          Buffer.contents buf
      | Some '\\' -> (
          advance st;
          match peek st with
          | None -> fail st "unterminated escape"
          | Some c ->
              advance st;
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 't' -> Buffer.add_char buf '\t'
              | 'r' -> Buffer.add_char buf '\r'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' ->
                  let cp = parse_hex4 st in
                  (* Surrogate pair handling. *)
                  if cp >= 0xD800 && cp <= 0xDBFF then begin
                    expect st '\\';
                    expect st 'u';
                    let low = parse_hex4 st in
                    if low < 0xDC00 || low > 0xDFFF then fail st "invalid low surrogate";
                    let combined = 0x10000 + ((cp - 0xD800) lsl 10) + (low - 0xDC00) in
                    add_utf8 buf combined
                  end
                  else add_utf8 buf cp
              | c -> fail st (Printf.sprintf "invalid escape \\%c" c));
              loop ())
      | Some c ->
          advance st;
          Buffer.add_char buf c;
          loop ()
    in
    loop ()

  let parse_number st =
    let start = st.pos in
    let is_float = ref false in
    let consume_digits () =
      let rec loop () =
        match peek st with
        | Some '0' .. '9' ->
            advance st;
            loop ()
        | Some _ | None -> ()
      in
      loop ()
    in
    (match peek st with Some '-' -> advance st | Some _ | None -> ());
    consume_digits ();
    (match peek st with
    | Some '.' ->
        is_float := true;
        advance st;
        consume_digits ()
    | Some _ | None -> ());
    (match peek st with
    | Some ('e' | 'E') ->
        is_float := true;
        advance st;
        (match peek st with Some ('+' | '-') -> advance st | Some _ | None -> ());
        consume_digits ()
    | Some _ | None -> ());
    let text = String.sub st.input start (st.pos - start) in
    if text = "" || text = "-" then fail st "invalid number";
    match (if !is_float then None else int_of_string_opt text) with
    | Some n -> Json.Int n
    | None -> (
        match float_of_string_opt text with
        | Some f -> Json.Float f
        | None -> fail st "invalid number")

  let rec parse_value st =
    skip_ws st;
    match peek st with
    | None -> fail st "unexpected end of input"
    | Some '{' -> parse_object st
    | Some '[' -> parse_array st
    | Some '"' ->
        advance st;
        Json.String (parse_string_body st)
    | Some 't' -> expect_keyword st "true" (Json.Bool true)
    | Some 'f' -> expect_keyword st "false" (Json.Bool false)
    | Some 'n' -> expect_keyword st "null" Json.Null
    | Some ('-' | '0' .. '9') -> parse_number st
    | Some c -> fail st (Printf.sprintf "unexpected character %c" c)

  and parse_object st =
    expect st '{';
    skip_ws st;
    match peek st with
    | Some '}' ->
        advance st;
        Json.Assoc []
    | Some _ | None ->
        let rec loop acc =
          skip_ws st;
          expect st '"';
          let key = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              loop ((key, v) :: acc)
          | Some '}' ->
              advance st;
              Json.Assoc (List.rev ((key, v) :: acc))
          | Some c -> fail st (Printf.sprintf "expected , or } in object, found %c" c)
          | None -> fail st "unterminated object"
        in
        loop []

  and parse_array st =
    expect st '[';
    skip_ws st;
    match peek st with
    | Some ']' ->
        advance st;
        Json.List []
    | Some _ | None ->
        let rec loop acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              loop (v :: acc)
          | Some ']' ->
              advance st;
              Json.List (List.rev (v :: acc))
          | Some c -> fail st (Printf.sprintf "expected , or ] in array, found %c" c)
          | None -> fail st "unterminated array"
        in
        loop []

  let parse_exn input =
    let st = { input; pos = 0; line = 1; bol = 0 } in
    let v = parse_value st in
    skip_ws st;
    match peek st with
    | None -> v
    | Some c -> fail st (Printf.sprintf "trailing content: %c" c)

  let parse input =
    match parse_exn input with v -> Ok v | exception Parse_error e -> Error e
end

(* What a parse ends in: its value, or its error's position and
   message. *)
let parse_outcome parse input =
  match parse input with
  | Ok v -> Ok v
  | Error { Parser.line; col; message } -> Error (line, col, message)

(* JSON text drawn from values with strings of every kind of byte --
   raw newlines and NUL bytes included -- each byte printed raw, as a
   short escape or as a [\u] escape, astral code points as surrogate
   pairs, and random whitespace between tokens; then, half the time,
   cut short or with one byte overwritten. *)
let json_text_gen =
  let open QCheck2.Gen in
  let ws = map (String.concat "") (list_size (int_range 0 2) (oneofa [| " "; "\n"; "\t"; "\r" |])) in
  let hex4 upper cp = Printf.sprintf (if upper then "\\u%04X" else "\\u%04x") cp in
  let piece =
    frequency
      [
        6, map (String.make 1) (oneofa [| 'a'; 'z'; '0'; ' '; '\n'; '\000'; '\t'; '\255'; '/' |]);
        2, oneofa [| "\\\""; "\\\\"; "\\/"; "\\n"; "\\t"; "\\r"; "\\b"; "\\f" |];
        2, map2 hex4 bool (int_range 0 0xD7FF);
        1,
          map2
            (fun upper cp ->
              let c = cp - 0x10000 in
              hex4 upper (0xD800 + (c lsr 10)) ^ hex4 upper (0xDC00 + (c land 0x3FF)))
            bool (int_range 0x10000 0x10FFFF);
        1, map (String.make 1) char;
      ]
  in
  let str = map (fun ps -> "\"" ^ String.concat "" ps ^ "\"") (list_size (int_range 0 8) piece) in
  let number =
    oneof
      [
        map string_of_int int;
        map (Printf.sprintf "%.17g") (float_range (-1e9) 1e9);
        oneofa [| "0"; "-0"; "1e5"; "2E-3"; "-1.5e+2"; "4611686018427387903"; "4611686018427387904";
                  "-4611686018427387904"; "-4611686018427387905"; "123456789012345678901234"; "007" |];
      ]
  in
  let value =
    fix
      (fun self depth ->
        let scalar = frequency [ 1, oneofa [| "null"; "true"; "false" |]; 2, number; 3, str ] in
        let around v = map3 (fun a v b -> a ^ v ^ b) ws v ws in
        if depth = 0 then around scalar
        else
          frequency
            [
              2, around scalar;
              1,
                map (fun vs -> "[" ^ String.concat "," vs ^ "]")
                  (list_size (int_range 0 4) (around (self (depth - 1))));
              1,
                map
                  (fun kvs -> "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ ":" ^ v) kvs) ^ "}")
                  (list_size (int_range 0 4) (pair (around str) (self (depth - 1))));
            ])
      3
  in
  let* text = value in
  let n = String.length text in
  frequency
    [
      2, pure text;
      1, map (fun i -> String.sub text 0 (i mod (n + 1))) nat;
      1,
        map2
          (fun i c -> if n = 0 then text else String.mapi (fun j x -> if j = i mod n then c else x) text)
          nat
          (frequency [ 3, oneofa [| '"'; '\\'; 'u'; '{'; '}'; '['; ']'; ','; ':'; '-'; '.'; 'e'; '\n' |]; 1, char ]);
    ]

let json_differential_property =
  QCheck2.Test.make ~name:"reader values and errors equal the reference reader" ~count:3000
    ~print:(Printf.sprintf "%S") json_text_gen (fun input ->
      parse_outcome Parser.parse input = parse_outcome Reference_parser.parse input)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ roundtrip_compact; roundtrip_pretty; canonical_idempotent; json_differential_property ]

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
