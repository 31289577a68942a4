type check_result = Pass | Fail of string

type rule = {
  rule_name : string;
  check : Cm_thrift.Value.t -> check_result;
  range : (string * int * int) option;
}

let rule ?range rule_name check = { rule_name; check; range }

let field_int_range ~field ~min ~max =
  rule ~range:(field, min, max)
    (Printf.sprintf "%s in [%d, %d]" field min max)
    (fun v ->
      match Cm_thrift.Value.field field v with
      | Some (Cm_thrift.Value.Int n) ->
          if n >= min && n <= max then Pass
          else Fail (Printf.sprintf "field %s = %d outside [%d, %d]" field n min max)
      | Some other ->
          Fail
            (Printf.sprintf "field %s is not an integer: %s" field
               (Cm_thrift.Value.to_string other))
      | None -> Pass)

let field_nonempty_string ~field =
  rule
    (Printf.sprintf "%s non-empty" field)
    (fun v ->
      match Cm_thrift.Value.field field v with
      | Some (Cm_thrift.Value.Str "") -> Fail (Printf.sprintf "field %s is empty" field)
      | Some _ | None -> Pass)

let all rules =
  rule
    (String.concat " && " (List.map (fun r -> r.rule_name) rules))
    (fun v ->
      let rec run = function
        | [] -> Pass
        | r :: rest -> ( match r.check v with Pass -> run rest | Fail _ as f -> f)
      in
      run rules)

type t = { by_type : (string, rule list ref) Hashtbl.t }

let create () = { by_type = Hashtbl.create 16 }

let register t ~type_name r =
  match Hashtbl.find_opt t.by_type type_name with
  | Some rules -> rules := !rules @ [ r ]
  | None -> Hashtbl.replace t.by_type type_name (ref [ r ])

let of_source ~modules ~type_name ~source =
  match Cm_lang.Parser.parse source with
  | Error e ->
      Error (Printf.sprintf "validator parse error at line %d: %s" e.Cm_lang.Parser.line
               e.Cm_lang.Parser.message)
  | Ok file ->
      let has_validate =
        List.exists
          (fun (stmt, _) ->
            match stmt with
            | Cm_lang.Ast.Def ("validate", _, _) -> true
            | Cm_lang.Ast.Def _ | Cm_lang.Ast.Bind _ | Cm_lang.Ast.Import _
            | Cm_lang.Ast.Import_thrift _ | Cm_lang.Ast.Export _ -> false)
          file.Cm_lang.Ast.stmts
      in
      if not has_validate then Error "validator source must define validate(cfg)"
      else begin
        (* Evaluate the validator file once; each check only applies
           its [validate]. *)
        Cm_lang.Eval.Modules.add_imports modules file;
        let validate =
          match
            Cm_lang.Eval.run ~modules ~path:(type_name ^ ".thrift-cvalidator") ~source
          with
          | Error e -> Error (Printf.sprintf "validator error: %s" e.Cm_lang.Eval.message)
          | Ok outcome -> (
              match List.assoc_opt "validate" outcome.Cm_lang.Eval.bindings with
              | None -> Error "validator did not produce a validate function"
              | Some fn -> Ok fn)
        in
        let call = Cm_lang.Parser.parse_expr_exn "validate(cfg)" in
        let check v =
          match validate with
          | Error reason -> Fail reason
          | Ok fn -> (
              let arg = Cm_lang.Eval.of_thrift v in
              match
                Cm_lang.Eval.eval_expr_standalone ~bindings:[ "validate", fn; "cfg", arg ] call
              with
              | Ok (Cm_lang.Eval.V_bool true) -> Pass
              | Ok (Cm_lang.Eval.V_bool false) -> Fail "validate(cfg) returned false"
              | Ok (Cm_lang.Eval.V_str "") -> Pass
              | Ok (Cm_lang.Eval.V_str message) -> Fail message
              | Ok _ -> Fail "validate(cfg) must return bool or string"
              | Error e -> Fail (Printf.sprintf "validator error: %s" e.Cm_lang.Eval.message))
        in
        Ok (rule (type_name ^ " source validator") check)
      end

let validate t ~type_name v =
  match Hashtbl.find_opt t.by_type type_name with
  | None -> Pass
  | Some rules -> (all !rules).check v

let verdicts t ~type_name ~path v =
  match Hashtbl.find_opt t.by_type type_name with
  | None -> []
  | Some rules ->
      List.map
        (fun r ->
          match r.check v with
          | Pass -> Defense.pass ~stage:"validator" ~rule:r.rule_name ~path "holds"
          | Fail reason -> Defense.fail ~stage:"validator" ~rule:r.rule_name ~path reason)
        !rules

let declared_ranges t ~type_name =
  match Hashtbl.find_opt t.by_type type_name with
  | None -> []
  | Some rules ->
      List.filter_map
        (fun r ->
          match r.range with
          | Some (field, lo, hi) -> Some (field, (lo, hi))
          | None -> None)
        !rules
