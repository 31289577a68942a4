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

(* Every keyword as one preallocated token, so recognizing one
   allocates nothing. *)
let keywords =
  Array.map
    (fun k -> k, Keyword k)
    [| "import"; "import_thrift"; "def"; "export"; "if"; "then"; "else"; "let"; "in";
       "and"; "or"; "not"; "true"; "false"; "null" |]

let rec spells k input start i =
  i = String.length k
  || (String.unsafe_get k i = String.unsafe_get input (start + i) && spells k input start (i + 1))

(* The keyword token spelled by the [n] bytes of [input] at [start],
   searching [keywords] from index [j], or [Eof] when they spell none. *)
let rec keyword_at j input start n =
  if j = Array.length keywords then Eof
  else
    let k, tok = Array.unsafe_get keywords j in
    if String.length k = n && spells k input start 0 then tok else keyword_at (j + 1) input start n

(* One preallocated token per single-character operator, indexed by
   the character, and one per two-character operator, so emitting an
   operator allocates nothing. *)
let single_ops =
  Array.init 256 (fun code -> Op (String.make 1 (Char.chr code)))

let op_eq = Op "=="
let op_ne = Op "!="
let op_le = Op "<="
let op_ge = Op ">="

let is_ident_start c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

let is_digit c = match c with '0' .. '9' -> true | _ -> false

(* Tokens and their lines go straight into two arrays, sized for a
   token per three bytes and grown by doubling.  Their slots past the
   last token already hold [Eof]; the lines there are filled in at the
   end rather than the arrays cut to length. *)
let tokenize input =
  let len = String.length input in
  let tokens = ref (Array.make ((len / 3) + 8) Eof) in
  let lines = ref (Array.make (Array.length !tokens) 0) in
  let count = ref 0 in
  let pos = ref 0 in
  let line = ref 1 in
  let fail message = raise (Lex_error { line = !line; message }) in
  let emit tok =
    let n = !count in
    if n = Array.length !tokens then begin
      let grown = Array.make (2 * n) Eof in
      Array.blit !tokens 0 grown 0 n;
      tokens := grown;
      let grown = Array.make (2 * n) 0 in
      Array.blit !lines 0 grown 0 n;
      lines := grown
    end;
    Array.unsafe_set !tokens n tok;
    Array.unsafe_set !lines n !line;
    count := n + 1
  in
  (* The byte after the current one, or ['\000'] at the end of input
     (which no two-character token continues with). *)
  let next () = if !pos + 1 < len then String.unsafe_get input (!pos + 1) else '\000' in
  (* A string literal's body from [!pos], after its opening quote: a
     body with no escape is one slice of the input. *)
  let string_body () =
    let start = !pos in
    let stop = ref start in
    let plain c = match c with '"' | '\\' | '\n' -> false | _ -> true in
    while !stop < len && plain (String.unsafe_get input !stop) do
      incr stop
    done;
    if !stop < len && String.unsafe_get input !stop = '"' then begin
      pos := !stop + 1;
      String.sub input start (!stop - start)
    end
    else begin
      let buf = Buffer.create (2 * (!stop - start + 8)) in
      Buffer.add_substring buf input start (!stop - start);
      pos := !stop;
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
      Buffer.contents buf
    end
  in
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
        emit (Str (string_body ()))
    | c when is_digit c ->
        let start = !pos in
        (* The digits' value, or -1 past [max_int]. *)
        let value = ref 0 in
        while !pos < len && is_digit input.[!pos] do
          let d = Char.code input.[!pos] - Char.code '0' in
          if !value > (max_int - d) / 10 then value := -1
          else if !value >= 0 then value := (10 * !value) + d;
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
        let number =
          if !is_float then
            match float_of_string_opt (String.sub input start (!pos - start)) with
            | Some f -> Float f
            | None -> Eof
          else if !value >= 0 then Int !value
          else Eof
        in
        (match number with
        | Eof -> fail (Printf.sprintf "invalid number %s" (String.sub input start (!pos - start)))
        | number -> emit number)
    | c when is_ident_start c ->
        let start = !pos in
        while !pos < len && is_ident_char input.[!pos] do
          incr pos
        done;
        let n = !pos - start in
        (match keyword_at 0 input start n with
        | Eof -> emit (Ident (String.sub input start n))
        | keyword -> emit keyword)
    | '=' when next () = '=' ->
        pos := !pos + 2;
        emit op_eq
    | '!' when next () = '=' ->
        pos := !pos + 2;
        emit op_ne
    | '<' when next () = '=' ->
        pos := !pos + 2;
        emit op_le
    | '>' when next () = '=' ->
        pos := !pos + 2;
        emit op_ge
    | '=' | '<' | '>' | '+' | '-' | '*' | '/' | '%' | '.' | ',' | ':'
    | '(' | ')' | '[' | ']' | '{' | '}' ->
        incr pos;
        emit single_ops.(Char.code c)
    | c -> fail (Printf.sprintf "unexpected character %c" c)
  done;
  emit Eof;
  Array.fill !lines !count (Array.length !lines - !count) !line;
  !tokens, !lines
