module Json = Cm_json.Value

type rule = {
  restraints : Restraint.t list;
  pass_prob : float;
  salt : string;
}

type t = {
  project_name : string;
  rules : rule list;
  killed : bool;
}

let make ~name rules = { project_name = name; rules; killed = false }
let rule ?(salt = "") ?(pass_prob = 1.0) restraints = { restraints; pass_prob; salt }
let kill t = { t with killed = true }
let revive t = { t with killed = false }

let sticky_pass t ~rule_index r user =
  if r.pass_prob >= 1.0 then true
  else if r.pass_prob <= 0.0 then false
  else begin
    let salt = if r.salt = "" then string_of_int rule_index else r.salt in
    let key =
      t.project_name ^ "\000" ^ salt ^ "\000" ^ Int64.to_string user.User.id
    in
    Cm_sim.Rng.hash_to_unit key < r.pass_prob
  end

let check ctx t user =
  if t.killed then false
  else begin
    let rec scan idx = function
      | [] -> false
      | r :: rest ->
          if List.for_all (fun restraint_ -> Restraint.eval ctx restraint_ user) r.restraints
          then sticky_pass t ~rule_index:idx r user
          else scan (idx + 1) rest
    in
    scan 0 t.rules
  end

let rule_to_json r =
  Json.obj
    [
      "restraints", Json.List (List.map Restraint.to_json r.restraints);
      "pass_prob", Json.Float r.pass_prob;
      "salt", Json.String r.salt;
    ]

let to_json t =
  Json.obj
    [
      "project", Json.String t.project_name;
      "killed", Json.Bool t.killed;
      "rules", Json.List (List.map rule_to_json t.rules);
    ]

let rule_of_json json =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* restraints =
    match Json.member "restraints" json with
    | Some (Json.List items) ->
        List.fold_left
          (fun acc item ->
            match acc with
            | Error _ as e -> e
            | Ok restraints -> (
                match Restraint.of_json item with
                | Ok r -> Ok (restraints @ [ r ])
                | Error _ as e -> e))
          (Ok []) items
    | Some _ | None -> Error "rule missing restraints list"
  in
  let* pass_prob =
    match Json.member "pass_prob" json with
    | Some v -> (
        match Json.to_float v with
        | Some f when f >= 0.0 && f <= 1.0 -> Ok f
        | Some f -> Error (Printf.sprintf "pass_prob %g out of [0,1]" f)
        | None -> Error "pass_prob must be a number")
    | None -> Ok 1.0
  in
  let salt =
    match Json.member "salt" json with Some (Json.String s) -> s | Some _ | None -> ""
  in
  Ok { restraints; pass_prob; salt }

let of_json json =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let* name =
    match Json.member "project" json with
    | Some (Json.String s) -> Ok s
    | Some _ | None -> Error "project missing name"
  in
  let killed =
    match Json.member "killed" json with Some (Json.Bool b) -> b | Some _ | None -> false
  in
  let* rules =
    match Json.member "rules" json with
    | Some (Json.List items) ->
        List.fold_left
          (fun acc item ->
            match acc with
            | Error _ as e -> e
            | Ok rules -> (
                match rule_of_json item with
                | Ok r -> Ok (rules @ [ r ])
                | Error _ as e -> e))
          (Ok []) items
    | Some _ | None -> Error "project missing rules list"
  in
  Ok { project_name = name; rules; killed }

let to_string t = Json.to_compact_string (to_json t)

let of_string s =
  match Cm_json.Parser.parse s with
  | Ok json -> of_json json
  | Error e -> Error (Format.asprintf "%a" Cm_json.Parser.pp_error e)

let employee_rollout ~name ~prob =
  make ~name [ rule ~salt:"employee" ~pass_prob:prob [ Restraint.make Restraint.Employee ] ]

let staged ~name ~employee_prob ~world_prob =
  make ~name
    [
      rule ~salt:"employee" ~pass_prob:employee_prob [ Restraint.make Restraint.Employee ];
      rule ~salt:"world" ~pass_prob:world_prob [ Restraint.make Restraint.Always ];
    ]
