type repair = {
  origin : string;
  suggestion : string;
  note : string;
}

type verdict = {
  stage : string;
  rule : string;
  path : string;
  passed : bool;
  detail : string;
  repair : repair option;
}

type finding = { ok : bool; at : string; note : string }

type rejection = { failed_stage : string; verdicts : verdict list }

let repair ~origin ~suggestion note = { origin; suggestion; note }
let finding ?(at = "") ~ok note = { ok; at; note }

let pass ~stage ~rule ?(path = "") detail =
  { stage; rule; path; passed = true; detail; repair = None }

let fail ~stage ~rule ?(path = "") ?repair detail =
  { stage; rule; path; passed = false; detail; repair }

let of_finding ~stage ~rule f =
  { stage; rule; path = f.at; passed = f.ok; detail = f.note; repair = None }

let all_passed verdicts = List.for_all (fun v -> v.passed) verdicts
let failures verdicts = List.filter (fun v -> not v.passed) verdicts
let reject ~stage verdicts = { failed_stage = stage; verdicts }

let pp_repair ppf r =
  Format.fprintf ppf "repair (%s): %s — %s" r.origin r.suggestion r.note

let pp_verdict ppf v =
  Format.fprintf ppf "[%s/%s] %s%s%s" v.stage v.rule
    (if v.passed then "ok" else "FAIL")
    (if v.path = "" then "" else " " ^ v.path)
    (if v.detail = "" then "" else ": " ^ v.detail);
  match v.repair with
  | Some r -> Format.fprintf ppf "@,  %a" pp_repair r
  | None -> ()

let summary r =
  match failures r.verdicts with
  | [] -> Printf.sprintf "rejected at %s" r.failed_stage
  | v :: _ ->
      Printf.sprintf "rejected at %s: [%s] %s%s" r.failed_stage v.rule
        (if v.path = "" then "" else v.path ^ ": ")
        v.detail

module Json = Cm_json.Value

let verdict_to_json v =
  Json.obj
    ([
       "stage", Json.String v.stage;
       "rule", Json.String v.rule;
       "path", Json.String v.path;
       "passed", Json.Bool v.passed;
       "detail", Json.String v.detail;
     ]
    @
    match v.repair with
    | None -> []
    | Some r ->
        [
          ( "repair",
            Json.obj
              [
                "origin", Json.String r.origin;
                "suggestion", Json.String r.suggestion;
                "note", Json.String r.note;
              ] );
        ])
