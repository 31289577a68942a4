type error = { line : int; col : int; message : string }

let pp_error ppf { line; col; message } =
  Format.fprintf ppf "JSON parse error at line %d, column %d: %s" line col message

exception Parse_error of error

(* Every reader tests [pos < len] and then reads the byte itself, so
   inspecting a byte allocates nothing.  [bol] is the index of the
   first byte of the current line. *)
type state = { input : string; len : int; mutable pos : int; mutable line : int; mutable bol : int }

let fail st message =
  raise (Parse_error { line = st.line; col = st.pos - st.bol + 1; message })

let at_end st = st.pos >= st.len
let byte st = String.unsafe_get st.input st.pos

(* Step past the byte at [pos], which is in bounds. *)
let advance st =
  if byte st = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let rec skip_ws st =
  if not (at_end st) then
    match byte st with
    | ' ' | '\t' | '\n' | '\r' ->
        advance st;
        skip_ws st
    | _ -> ()

let expect st c =
  if at_end st then fail st (Printf.sprintf "expected %c, found end of input" c)
  else
    let found = byte st in
    if found = c then advance st else fail st (Printf.sprintf "expected %c, found %c" c found)

let rec spells keyword input at i =
  i = String.length keyword
  || (keyword.[i] = String.unsafe_get input (at + i) && spells keyword input at (i + 1))

let expect_keyword st keyword value =
  let n = String.length keyword in
  if st.pos + n <= st.len && spells keyword st.input st.pos 0 then begin
    st.pos <- st.pos + n;
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
    if at_end st then fail st "unterminated \\u escape";
    code := (!code * 16) + hex_digit st (byte st);
    advance st
  done;
  !code

(* Step over plain string bytes -- any but a quote or a backslash --
   counting raw newlines, to the end of input at most. *)
let rec plain_run st =
  if not (at_end st) then
    match byte st with
    | '"' | '\\' -> ()
    | _ ->
        advance st;
        plain_run st

(* The body of a string, after its opening quote: one slice of the
   input when it holds no escape. *)
let parse_string_body st =
  let start = st.pos in
  plain_run st;
  if (not (at_end st)) && byte st = '"' then begin
    st.pos <- st.pos + 1;
    String.sub st.input start (st.pos - 1 - start)
  end
  else begin
    let buf = Buffer.create (st.pos - start + 16) in
    Buffer.add_substring buf st.input start (st.pos - start);
    (* At a quote, a backslash or the end of input. *)
    let rec loop () =
      if at_end st then fail st "unterminated string"
      else if byte st = '"' then begin
        st.pos <- st.pos + 1;
        Buffer.contents buf
      end
      else begin
        st.pos <- st.pos + 1;
        if at_end st then fail st "unterminated escape";
        let c = byte st in
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
        let run = st.pos in
        plain_run st;
        Buffer.add_substring buf st.input run (st.pos - run);
        loop ()
      end
    in
    loop ()
  end

let is_digit = function '0' .. '9' -> true | _ -> false

let rec skip_digits st =
  if (not (at_end st)) && is_digit (byte st) then begin
    st.pos <- st.pos + 1;
    skip_digits st
  end

(* An integer literal is read in place, as a negative accumulator so
   that [min_int] fits; one beyond the int range, or with a fraction or
   an exponent, goes through [float_of_string]. *)
let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let negative = byte st = '-' in
  if negative then st.pos <- st.pos + 1;
  skip_digits st;
  if (not (at_end st)) && byte st = '.' then begin
    is_float := true;
    st.pos <- st.pos + 1;
    skip_digits st
  end;
  if (not (at_end st)) && (byte st = 'e' || byte st = 'E') then begin
    is_float := true;
    st.pos <- st.pos + 1;
    if (not (at_end st)) && (byte st = '+' || byte st = '-') then st.pos <- st.pos + 1;
    skip_digits st
  end;
  let first = if negative then start + 1 else start in
  if st.pos = first then fail st "invalid number";
  let acc = ref 0 and fits = ref (not !is_float) in
  if !fits then
    for i = first to st.pos - 1 do
      let d = Char.code (String.unsafe_get st.input i) - Char.code '0' in
      if !fits then if !acc < (min_int + d) / 10 then fits := false else acc := (10 * !acc) - d
    done;
  if !fits && (negative || !acc >= -max_int) then Value.Int (if negative then !acc else - !acc)
  else
    match float_of_string_opt (String.sub st.input start (st.pos - start)) with
    | Some f -> Value.Float f
    | None -> fail st "invalid number"

let rec parse_value st =
  skip_ws st;
  if at_end st then fail st "unexpected end of input"
  else
    match byte st with
    | '{' -> parse_object st
    | '[' -> parse_array st
    | '"' ->
        st.pos <- st.pos + 1;
        Value.String (parse_string_body st)
    | 't' -> expect_keyword st "true" (Value.Bool true)
    | 'f' -> expect_keyword st "false" (Value.Bool false)
    | 'n' -> expect_keyword st "null" Value.Null
    | '-' | '0' .. '9' -> parse_number st
    | c -> fail st (Printf.sprintf "unexpected character %c" c)

and parse_object st =
  expect st '{';
  skip_ws st;
  if (not (at_end st)) && byte st = '}' then begin
    st.pos <- st.pos + 1;
    Value.Assoc []
  end
  else
    let rec loop acc =
      skip_ws st;
      expect st '"';
      let key = parse_string_body st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      skip_ws st;
      if at_end st then fail st "unterminated object"
      else
        match byte st with
        | ',' ->
            st.pos <- st.pos + 1;
            loop ((key, v) :: acc)
        | '}' ->
            st.pos <- st.pos + 1;
            Value.Assoc (List.rev ((key, v) :: acc))
        | c -> fail st (Printf.sprintf "expected , or } in object, found %c" c)
    in
    loop []

and parse_array st =
  expect st '[';
  skip_ws st;
  if (not (at_end st)) && byte st = ']' then begin
    st.pos <- st.pos + 1;
    Value.List []
  end
  else
    let rec loop acc =
      let v = parse_value st in
      skip_ws st;
      if at_end st then fail st "unterminated array"
      else
        match byte st with
        | ',' ->
            st.pos <- st.pos + 1;
            loop (v :: acc)
        | ']' ->
            st.pos <- st.pos + 1;
            Value.List (List.rev (v :: acc))
        | c -> fail st (Printf.sprintf "expected , or ] in array, found %c" c)
    in
    loop []

let parse_exn input =
  let st = { input; len = String.length input; pos = 0; line = 1; bol = 0 } in
  let v = parse_value st in
  skip_ws st;
  if at_end st then v else fail st (Printf.sprintf "trailing content: %c" (byte st))

let parse input =
  match parse_exn input with v -> Ok v | exception Parse_error e -> Error e
