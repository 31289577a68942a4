type error = { line : int; message : string }

exception Parse_error of error

let pp_error ppf { line; message } =
  Format.fprintf ppf "IDL error at line %d: %s" line message

type token =
  | Ident of string
  | Number of string
  | Strlit of string
  | Punct of char  (** one of {}:;,=<>.[] *)
  | Eof

type lexer = { input : string; mutable pos : int; mutable line : int }

let lex_fail lx message = raise (Parse_error { line = lx.line; message })

let is_ident_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

let rec skip_trivia lx =
  let len = String.length lx.input in
  if lx.pos < len then
    match lx.input.[lx.pos] with
    | ' ' | '\t' | '\r' ->
        lx.pos <- lx.pos + 1;
        skip_trivia lx
    | '\n' ->
        lx.pos <- lx.pos + 1;
        lx.line <- lx.line + 1;
        skip_trivia lx
    | '#' ->
        while lx.pos < len && lx.input.[lx.pos] <> '\n' do
          lx.pos <- lx.pos + 1
        done;
        skip_trivia lx
    | '/' when lx.pos + 1 < len && lx.input.[lx.pos + 1] = '/' ->
        while lx.pos < len && lx.input.[lx.pos] <> '\n' do
          lx.pos <- lx.pos + 1
        done;
        skip_trivia lx
    | '/' when lx.pos + 1 < len && lx.input.[lx.pos + 1] = '*' ->
        lx.pos <- lx.pos + 2;
        let rec close () =
          if lx.pos + 1 >= len then lex_fail lx "unterminated comment"
          else if lx.input.[lx.pos] = '*' && lx.input.[lx.pos + 1] = '/' then
            lx.pos <- lx.pos + 2
          else begin
            if lx.input.[lx.pos] = '\n' then lx.line <- lx.line + 1;
            lx.pos <- lx.pos + 1;
            close ()
          end
        in
        close ();
        skip_trivia lx
    | _ -> ()

let next_token lx =
  skip_trivia lx;
  let len = String.length lx.input in
  if lx.pos >= len then Eof
  else
    match lx.input.[lx.pos] with
    | ('{' | '}' | ':' | ';' | ',' | '=' | '<' | '>' | '.' | '[' | ']') as c ->
        lx.pos <- lx.pos + 1;
        Punct c
    | '"' ->
        lx.pos <- lx.pos + 1;
        let buf = Buffer.create 8 in
        let rec loop () =
          if lx.pos >= len then lex_fail lx "unterminated string"
          else
            match lx.input.[lx.pos] with
            | '"' -> lx.pos <- lx.pos + 1
            | '\\' when lx.pos + 1 < len ->
                Buffer.add_char buf lx.input.[lx.pos + 1];
                lx.pos <- lx.pos + 2;
                loop ()
            | c ->
                Buffer.add_char buf c;
                lx.pos <- lx.pos + 1;
                loop ()
        in
        loop ();
        Strlit (Buffer.contents buf)
    | '0' .. '9' | '-' ->
        let start = lx.pos in
        lx.pos <- lx.pos + 1;
        while
          lx.pos < len
          && (match lx.input.[lx.pos] with
             | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
             | _ -> false)
        do
          lx.pos <- lx.pos + 1
        done;
        Number (String.sub lx.input start (lx.pos - start))
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
        let start = lx.pos in
        while lx.pos < len && is_ident_char lx.input.[lx.pos] do
          lx.pos <- lx.pos + 1
        done;
        Ident (String.sub lx.input start (lx.pos - start))
    | c -> lex_fail lx (Printf.sprintf "unexpected character %c" c)

type parser_state = { lx : lexer; mutable tok : token }

let advance ps = ps.tok <- next_token ps.lx
let fail ps message = raise (Parse_error { line = ps.lx.line; message })

let expect_punct ps c =
  match ps.tok with
  | Punct found when found = c -> advance ps
  | _ -> fail ps (Printf.sprintf "expected %c" c)

let expect_ident ps =
  match ps.tok with
  | Ident name ->
      advance ps;
      name
  | _ -> fail ps "expected identifier"

let rec parse_ty ps =
  match ps.tok with
  | Ident "bool" -> advance ps; Schema.Bool
  | Ident "i32" -> advance ps; Schema.I32
  | Ident "i64" -> advance ps; Schema.I64
  | Ident "double" -> advance ps; Schema.Double
  | Ident "string" -> advance ps; Schema.Str
  | Ident "list" ->
      advance ps;
      expect_punct ps '<';
      let inner = parse_ty ps in
      expect_punct ps '>';
      Schema.List inner
  | Ident "map" ->
      advance ps;
      expect_punct ps '<';
      let k = parse_ty ps in
      expect_punct ps ',';
      let v = parse_ty ps in
      expect_punct ps '>';
      Schema.Map (k, v)
  | Ident name ->
      advance ps;
      Schema.Named name
  | _ -> fail ps "expected a type"

let rec parse_const ps =
  match ps.tok with
  | Number text ->
      advance ps;
      (match int_of_string_opt text, float_of_string_opt text with
      | Some n, _ -> Value.Int n
      | None, Some f -> Value.Double f
      | None, None -> fail ps ("invalid number " ^ text))
  | Strlit s ->
      advance ps;
      Value.Str s
  | Ident "true" -> advance ps; Value.Bool true
  | Ident "false" -> advance ps; Value.Bool false
  | Ident name -> (
      advance ps;
      (* Enum reference: EnumName.MEMBER *)
      match ps.tok with
      | Punct '.' ->
          advance ps;
          let member = expect_ident ps in
          Value.Enum (name, member)
      | _ -> fail ps "expected . after identifier in default value")
  | Punct '[' ->
      advance ps;
      let rec items acc =
        match ps.tok with
        | Punct ']' ->
            advance ps;
            List.rev acc
        | _ ->
            let v = parse_const ps in
            (match ps.tok with Punct ',' -> advance ps | _ -> ());
            items (v :: acc)
      in
      Value.List (items [])
  | _ -> fail ps "expected a constant"

let parse_field ps =
  let fid =
    match ps.tok with
    | Number text -> (
        advance ps;
        match int_of_string_opt text with
        | Some n -> n
        | None -> fail ps "field id must be an integer")
    | _ -> fail ps "expected field id"
  in
  expect_punct ps ':';
  let freq =
    match ps.tok with
    | Ident "required" ->
        advance ps;
        Schema.Required
    | Ident "optional" ->
        advance ps;
        Schema.Optional
    | _ -> Schema.Optional
  in
  let fty = parse_ty ps in
  let fname = expect_ident ps in
  let fdefault =
    match ps.tok with
    | Punct '=' ->
        advance ps;
        Some (parse_const ps)
    | _ -> None
  in
  (match ps.tok with Punct (';' | ',') -> advance ps | _ -> ());
  { Schema.fid; fname; fty; freq; fdefault }

let parse_struct ps =
  let sname = expect_ident ps in
  expect_punct ps '{';
  let rec fields acc =
    match ps.tok with
    | Punct '}' ->
        advance ps;
        List.rev acc
    | _ -> fields (parse_field ps :: acc)
  in
  let fields = fields [] in
  (* Reject duplicate ids and names within the struct. *)
  let seen_ids = Hashtbl.create 8 and seen_names = Hashtbl.create 8 in
  List.iter
    (fun f ->
      if Hashtbl.mem seen_ids f.Schema.fid then
        fail ps (Printf.sprintf "duplicate field id %d in struct %s" f.Schema.fid sname);
      if Hashtbl.mem seen_names f.Schema.fname then
        fail ps (Printf.sprintf "duplicate field name %s in struct %s" f.Schema.fname sname);
      Hashtbl.replace seen_ids f.Schema.fid ();
      Hashtbl.replace seen_names f.Schema.fname ())
    fields;
  { Schema.sname; fields }

let parse_enum ps =
  let ename = expect_ident ps in
  expect_punct ps '{';
  let rec members acc next_auto =
    match ps.tok with
    | Punct '}' ->
        advance ps;
        List.rev acc
    | _ ->
        let name = expect_ident ps in
        let value, next_auto =
          match ps.tok with
          | Punct '=' -> (
              advance ps;
              match ps.tok with
              | Number text -> (
                  advance ps;
                  match int_of_string_opt text with
                  | Some n -> n, n + 1
                  | None -> fail ps "enum value must be an integer")
              | _ -> fail ps "expected enum value")
          | _ -> next_auto, next_auto + 1
        in
        (match ps.tok with Punct (',' | ';') -> advance ps | _ -> ());
        members ((name, value) :: acc) next_auto
  in
  { Schema.ename; members = members [] 0 }

let parse_exn input =
  let ps = { lx = { input; pos = 0; line = 1 }; tok = Eof } in
  advance ps;
  let rec loop schema =
    match ps.tok with
    | Eof -> schema
    | Ident "typedef" ->
        advance ps;
        let ty = parse_ty ps in
        let name = expect_ident ps in
        (match ps.tok with Punct ';' -> advance ps | _ -> ());
        loop { schema with Schema.typedefs = schema.Schema.typedefs @ [ name, ty ] }
    | Ident "struct" ->
        advance ps;
        let s = parse_struct ps in
        loop { schema with Schema.structs = schema.Schema.structs @ [ s.Schema.sname, s ] }
    | Ident "enum" ->
        advance ps;
        let e = parse_enum ps in
        loop { schema with Schema.enums = schema.Schema.enums @ [ e.Schema.ename, e ] }
    | _ -> fail ps "expected struct or enum"
  in
  loop Schema.empty

let parse input =
  match parse_exn input with
  | schema -> Ok schema
  | exception Parse_error e -> Error e
