type token =
  | Int of int
  | Float of float
  | Str of string
  | Ident of string
  | Keyword of string
  | Op of string
  | Eof

type error = { line : int; message : string }

exception Lex_error of error

let pp_error ppf { line; message } = Format.fprintf ppf "lex error at line %d: %s" line message

let pp_token ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | Ident s -> Format.fprintf ppf "%s" s
  | Keyword s -> Format.fprintf ppf "%s" s
  | Op s -> Format.fprintf ppf "%s" s
  | Eof -> Format.fprintf ppf "<eof>"

let is_keyword = function
  | "import" | "import_thrift" | "def" | "export" | "if" | "then" | "else" | "let" | "in"
  | "and" | "or" | "not" | "true" | "false" | "null" ->
      true
  | _ -> false

(* One preallocated token per single-character operator, indexed by
   the character, so emitting one allocates no string. *)
let single_ops =
  Array.init 256 (fun code -> Op (String.make 1 (Char.chr code)))

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
  let fail message = raise (Lex_error { line = !line; message }) in
  let emit tok = tokens := (tok, !line) :: !tokens in
  (* The byte after the current one, or ['\000'] at the end of input
     (which no two-character token continues with). *)
  let next () = if !pos + 1 < len then String.unsafe_get input (!pos + 1) else '\000' in
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
    | '/' when next () = '/' ->
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
                if !pos + 1 >= len then fail "unterminated escape";
                (match input.[!pos + 1] with
                | 'n' -> Buffer.add_char buf '\n'
                | 't' -> Buffer.add_char buf '\t'
                | c -> Buffer.add_char buf c);
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
        if is_keyword text then emit (Keyword text) else emit (Ident text)
    | '=' when next () = '=' ->
        pos := !pos + 2;
        emit (Op "==")
    | '!' when next () = '=' ->
        pos := !pos + 2;
        emit (Op "!=")
    | '<' when next () = '=' ->
        pos := !pos + 2;
        emit (Op "<=")
    | '>' when next () = '=' ->
        pos := !pos + 2;
        emit (Op ">=")
    | '=' | '<' | '>' | '+' | '-' | '*' | '/' | '%' | '.' | ',' | ':'
    | '(' | ')' | '[' | ']' | '{' | '}' ->
        incr pos;
        emit single_ops.(Char.code c)
    | c -> fail (Printf.sprintf "unexpected character %c" c)
  done;
  emit Eof;
  Array.of_list (List.rev !tokens)
