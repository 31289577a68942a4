type error = { line : int; col : int; message : string }

let pp_error ppf { line; col; message } =
  Format.fprintf ppf "JSON parse error at line %d, column %d: %s" line col message

exception Parse_error of error

type state = { input : string; mutable pos : int; mutable line : int; mutable bol : int }

let fail st message =
  raise (Parse_error { line = st.line; col = st.pos - st.bol + 1; message })

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
  | Some n -> Value.Int n
  | None -> (
      match float_of_string_opt text with
      | Some f -> Value.Float f
      | None -> fail st "invalid number")

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' -> parse_object st
  | Some '[' -> parse_array st
  | Some '"' ->
      advance st;
      Value.String (parse_string_body st)
  | Some 't' -> expect_keyword st "true" (Value.Bool true)
  | Some 'f' -> expect_keyword st "false" (Value.Bool false)
  | Some 'n' -> expect_keyword st "null" Value.Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character %c" c)

and parse_object st =
  expect st '{';
  skip_ws st;
  match peek st with
  | Some '}' ->
      advance st;
      Value.Assoc []
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
            Value.Assoc (List.rev ((key, v) :: acc))
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
      Value.List []
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
            Value.List (List.rev (v :: acc))
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
