type error = { line : int; message : string }

exception Parse_error of error

let pp_error ppf { line; message } =
  Format.fprintf ppf "parse error at line %d: %s" line message

(* The lexer's two arrays: token [i] and its line. *)
type state = { tokens : Lexer.token array; lines : int array; mutable idx : int }

let current ps = ps.tokens.(ps.idx)
let current_line ps = ps.lines.(ps.idx)
let advance ps = if ps.idx < Array.length ps.tokens - 1 then ps.idx <- ps.idx + 1
let fail ps message = raise (Parse_error { line = current_line ps; message })
let here ps = { Ast.line = current_line ps }
let mk pos desc = { Ast.desc; pos }

let expect_op ps op =
  match current ps with
  | Lexer.Op found when String.equal found op -> advance ps
  | tok -> fail ps (Format.asprintf "expected %s, found %a" op Lexer.pp_token tok)

let expect_keyword ps kw =
  match current ps with
  | Lexer.Keyword found when String.equal found kw -> advance ps
  | tok -> fail ps (Format.asprintf "expected %s, found %a" kw Lexer.pp_token tok)

let expect_ident ps =
  match current ps with
  | Lexer.Ident name ->
      advance ps;
      name
  | tok -> fail ps (Format.asprintf "expected identifier, found %a" Lexer.pp_token tok)

let expect_string ps =
  match current ps with
  | Lexer.Str s ->
      advance ps;
      s
  | tok -> fail ps (Format.asprintf "expected string literal, found %a" Lexer.pp_token tok)

let is_op ps op = match current ps with Lexer.Op found -> String.equal found op | _ -> false
let is_keyword ps kw =
  match current ps with Lexer.Keyword found -> String.equal found kw | _ -> false

let starts_uppercase name = name <> "" && name.[0] >= 'A' && name.[0] <= 'Z'

let rec parse_expr ps =
  if is_keyword ps "if" then begin
    let pos = here ps in
    advance ps;
    let cond = parse_expr ps in
    expect_keyword ps "then";
    let then_branch = parse_expr ps in
    expect_keyword ps "else";
    let else_branch = parse_expr ps in
    mk pos (Ast.If (cond, then_branch, else_branch))
  end
  else if is_keyword ps "let" then begin
    let pos = here ps in
    advance ps;
    let name = expect_ident ps in
    expect_op ps "=";
    let bound = parse_expr ps in
    expect_keyword ps "in";
    let body = parse_expr ps in
    mk pos (Ast.Let (name, bound, body))
  end
  else parse_or ps

and parse_or ps =
  let left = parse_and ps in
  if is_keyword ps "or" then begin
    let pos = here ps in
    advance ps;
    let right = parse_or ps in
    mk pos (Ast.Binop (Ast.Or, left, right))
  end
  else left

and parse_and ps =
  let left = parse_not ps in
  if is_keyword ps "and" then begin
    let pos = here ps in
    advance ps;
    let right = parse_and ps in
    mk pos (Ast.Binop (Ast.And, left, right))
  end
  else left

and parse_not ps =
  if is_keyword ps "not" then begin
    let pos = here ps in
    advance ps;
    let operand = parse_not ps in
    mk pos (Ast.Unop (Ast.Not, operand))
  end
  else parse_cmp ps

and parse_cmp ps =
  let left = parse_add ps in
  let op =
    match current ps with
    | Lexer.Op "==" -> Some Ast.Eq
    | Lexer.Op "!=" -> Some Ast.Ne
    | Lexer.Op "<" -> Some Ast.Lt
    | Lexer.Op "<=" -> Some Ast.Le
    | Lexer.Op ">" -> Some Ast.Gt
    | Lexer.Op ">=" -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> left
  | Some op ->
      let pos = here ps in
      advance ps;
      let right = parse_add ps in
      mk pos (Ast.Binop (op, left, right))

(* The left-associative loops are functions of their own, not local
   closures, so that parsing an operand allocates only its nodes. *)
and parse_add ps = add_rest ps (parse_mul ps)

and add_rest ps left =
  match current ps with
  | Lexer.Op "+" ->
      let pos = here ps in
      advance ps;
      add_rest ps (mk pos (Ast.Binop (Ast.Add, left, parse_mul ps)))
  | Lexer.Op "-" ->
      let pos = here ps in
      advance ps;
      add_rest ps (mk pos (Ast.Binop (Ast.Sub, left, parse_mul ps)))
  | _ -> left

and parse_mul ps = mul_rest ps (parse_unary ps)

and mul_rest ps left =
  match current ps with
  | Lexer.Op "*" ->
      let pos = here ps in
      advance ps;
      mul_rest ps (mk pos (Ast.Binop (Ast.Mul, left, parse_unary ps)))
  | Lexer.Op "/" ->
      let pos = here ps in
      advance ps;
      mul_rest ps (mk pos (Ast.Binop (Ast.Div, left, parse_unary ps)))
  | Lexer.Op "%" ->
      let pos = here ps in
      advance ps;
      mul_rest ps (mk pos (Ast.Binop (Ast.Mod, left, parse_unary ps)))
  | _ -> left

and parse_unary ps =
  if is_op ps "-" then begin
    let pos = here ps in
    advance ps;
    mk pos (Ast.Unop (Ast.Neg, parse_unary ps))
  end
  else parse_postfix ps

and parse_postfix ps = postfix_rest ps (parse_primary ps)

and postfix_rest ps expr =
  match current ps with
  | Lexer.Op "." ->
      let pos = here ps in
      advance ps;
      let name = expect_ident ps in
      postfix_rest ps (mk pos (Ast.Field (expr, name)))
  | Lexer.Op "[" ->
      let pos = here ps in
      advance ps;
      let idx = parse_expr ps in
      expect_op ps "]";
      postfix_rest ps (mk pos (Ast.Index (expr, idx)))
  | Lexer.Op "(" ->
      let pos = here ps in
      advance ps;
      let args = parse_args ps in
      postfix_rest ps (mk pos (Ast.Call (expr, args)))
  | _ -> expr

and parse_args ps =
  if is_op ps ")" then begin
    advance ps;
    []
  end
  else begin
    let rec loop acc =
      let arg = parse_expr ps in
      if is_op ps "," then begin
        advance ps;
        loop (arg :: acc)
      end
      else begin
        expect_op ps ")";
        List.rev (arg :: acc)
      end
    in
    loop []
  end

and parse_primary ps =
  let pos = here ps in
  match current ps with
  | Lexer.Int n ->
      advance ps;
      mk pos (Ast.Int n)
  | Lexer.Float f ->
      advance ps;
      mk pos (Ast.Float f)
  | Lexer.Str s ->
      advance ps;
      mk pos (Ast.Str s)
  | Lexer.Keyword "true" ->
      advance ps;
      mk pos (Ast.Bool true)
  | Lexer.Keyword "false" ->
      advance ps;
      mk pos (Ast.Bool false)
  | Lexer.Keyword "null" ->
      advance ps;
      mk pos Ast.Null
  | Lexer.Ident name ->
      advance ps;
      if is_op ps "{" && starts_uppercase name then begin
        advance ps;
        let fields = parse_struct_fields ps in
        mk pos (Ast.Struct_lit (name, fields))
      end
      else mk pos (Ast.Var name)
  | Lexer.Op "(" ->
      advance ps;
      let inner = parse_expr ps in
      expect_op ps ")";
      inner
  | Lexer.Op "[" ->
      advance ps;
      let rec items acc =
        if is_op ps "]" then begin
          advance ps;
          List.rev acc
        end
        else begin
          let item = parse_expr ps in
          if is_op ps "," then advance ps;
          items (item :: acc)
        end
      in
      mk pos (Ast.List_lit (items []))
  | Lexer.Op "{" ->
      advance ps;
      let rec pairs acc =
        if is_op ps "}" then begin
          advance ps;
          List.rev acc
        end
        else begin
          let key =
            match current ps with
            | Lexer.Str s ->
                advance ps;
                mk (here ps) (Ast.Str s)
            | Lexer.Ident name ->
                advance ps;
                mk (here ps) (Ast.Str name)
            | tok -> fail ps (Format.asprintf "expected map key, found %a" Lexer.pp_token tok)
          in
          expect_op ps ":";
          let v = parse_expr ps in
          if is_op ps "," then advance ps;
          pairs ((key, v) :: acc)
        end
      in
      mk pos (Ast.Map_lit (pairs []))
  | tok -> fail ps (Format.asprintf "unexpected token %a" Lexer.pp_token tok)

and parse_struct_fields ps =
  let rec loop acc =
    if is_op ps "}" then begin
      advance ps;
      List.rev acc
    end
    else begin
      let name = expect_ident ps in
      expect_op ps "=";
      let v = parse_expr ps in
      if is_op ps "," then advance ps;
      loop ((name, v) :: acc)
    end
  in
  loop []

let parse_params ps =
  expect_op ps "(";
  if is_op ps ")" then begin
    advance ps;
    []
  end
  else begin
    let rec loop acc =
      let pname = expect_ident ps in
      let pdefault =
        if is_op ps "=" then begin
          advance ps;
          Some (parse_expr ps)
        end
        else None
      in
      let param = { Ast.pname; pdefault } in
      if is_op ps "," then begin
        advance ps;
        loop (param :: acc)
      end
      else begin
        expect_op ps ")";
        List.rev (param :: acc)
      end
    in
    loop []
  end

(* Skip the rest of an [import ("x", ...)] through its [)]. *)
let rec skip_to_close ps =
  match current ps with
  | Lexer.Op ")" -> advance ps
  | Lexer.Eof -> expect_op ps ")"
  | _ ->
      advance ps;
      skip_to_close ps

let parse_stmt ps =
  let pos = here ps in
  match current ps with
  | Lexer.Keyword "import" ->
      advance ps;
      (* Accept both [import "x"] and [import ("x", "*")] from the paper. *)
      if is_op ps "(" then begin
        advance ps;
        let path = expect_string ps in
        skip_to_close ps;
        Ast.Import path, pos
      end
      else Ast.Import (expect_string ps), pos
  | Lexer.Keyword "import_thrift" ->
      advance ps;
      if is_op ps "(" then begin
        advance ps;
        let path = expect_string ps in
        skip_to_close ps;
        Ast.Import_thrift path, pos
      end
      else Ast.Import_thrift (expect_string ps), pos
  | Lexer.Keyword "def" ->
      advance ps;
      let name = expect_ident ps in
      let params = parse_params ps in
      expect_op ps "=";
      let body = parse_expr ps in
      Ast.Def (name, params, body), pos
  | Lexer.Keyword "export" ->
      advance ps;
      (* Accept [export expr] and the paper's [export_if_last(expr)]
         spelled [export (expr)]. *)
      Ast.Export (parse_expr ps), pos
  | Lexer.Ident name ->
      advance ps;
      expect_op ps "=";
      Ast.Bind (name, parse_expr ps), pos
  | tok -> fail ps (Format.asprintf "expected a statement, found %a" Lexer.pp_token tok)

let parse_exn input =
  let tokens, lines = Lexer.tokenize input in
  let ps = { tokens; lines; idx = 0 } in
  let rec loop acc =
    match current ps with
    | Lexer.Eof -> { Ast.stmts = List.rev acc }
    | _ -> loop (parse_stmt ps :: acc)
  in
  loop []

let parse input =
  match parse_exn input with
  | file -> Ok file
  | exception Parse_error e -> Error e
  | exception Lexer.Lex_error { line; message } -> Error { line; message }

let parse_expr_exn input =
  let tokens, lines = Lexer.tokenize input in
  let ps = { tokens; lines; idx = 0 } in
  let expr = parse_expr ps in
  match current ps with
  | Lexer.Eof -> expr
  | tok -> fail ps (Format.asprintf "trailing tokens after expression: %a" Lexer.pp_token tok)
