module Defense = Core.Defense
module Compiler = Core.Compiler
module Pipeline = Core.Pipeline

type invariant = Compiler.compiled list -> Defense.finding

type t = {
  static_checks : Static.check list;
  mutable invariants : (string * string * invariant) list;
  mutable tests : (string * string * Consumers.test) list;
  mutable nrun : int;
  mutable nfailed : int;
  mutable nrepairs : int;
}

let create ?(static_checks = []) () =
  { static_checks; invariants = []; tests = []; nrun = 0; nfailed = 0; nrepairs = 0 }

let standard () = create ~static_checks:Static.all ()

let register_invariant t ~name ~prefix invariant =
  t.invariants <- t.invariants @ [ name, prefix, invariant ]

let register_test t ~name ~prefix test = t.tests <- t.tests @ [ name, prefix, test ]

let is_empty t = t.static_checks = [] && t.invariants = [] && t.tests = []

let checks_run t = t.nrun
let failures t = t.nfailed
let repairs_suggested t = t.nrepairs

let prefix_matches ~prefix path =
  String.length path >= String.length prefix
  && String.equal (String.sub path 0 (String.length prefix)) prefix

let under_prefix ~prefix compiled =
  List.filter
    (fun c ->
      prefix_matches ~prefix c.Compiler.config_path
      || prefix_matches ~prefix c.Compiler.artifact_path)
    compiled

(* A candidate repair replaces one artifact's value; re-running the
   failing check on the patched artifact decides acceptance. *)
let with_json c json =
  let json_text = Cm_json.Value.to_compact_string json in
  { c with Compiler.json; json_text; digest = Compiler.digest_of_text json_text }

let note t verdict =
  t.nrun <- t.nrun + 1;
  if not verdict.Defense.passed then t.nfailed <- t.nfailed + 1;
  if verdict.Defense.repair <> None then t.nrepairs <- t.nrepairs + 1;
  verdict

(* The verify stage fans out across the pipeline's domain pool (a
   1-domain pool when none is attached): every static check,
   applicable invariant and
   (test, artifact) pair is an independent read-only job.  Two things
   stay on the caller's domain, at the join point, to keep the stage's
   observable behavior identical at any domain count:

   - the [note] counters — per the per-domain-counters rule, workers
     never touch shared mutable state;
   - repair synthesis — [Repair.suggest] reads the repo (whose pack
     backend shares a seeking file descriptor), and repairs only exist
     for failing verdicts, so deferring them costs nothing on the
     all-green path.

   Each job therefore returns [(verdict, deferred-repair)] pairs; jobs
   are enumerated in a fixed order (statics, then invariants,
   then tests) and the pool preserves that order, so the final verdict
   list is identical with 1 or N domains. *)
let run t (input : Pipeline.verify_input) =
  let compiled = input.Pipeline.verify_compiled in
  let repair_for ~target ~accepts =
    Repair.suggest ~validators:input.Pipeline.verify_validators
      ~repo:input.Pipeline.verify_repo ~compiled:target ~accepts ()
  in
  let no_repair () = None in
  let outlines =
    if t.static_checks = [] then []
    else Static.cone_outlines input.Pipeline.verify_depgraph compiled
  in
  let static_job check () =
    match check.Static.run ~outlines ~compiled with
    | [] ->
        [ Defense.pass ~stage:"verify" ~rule:check.Static.check_name "clean", no_repair ]
    | findings ->
        List.map
          (fun f ->
            Defense.of_finding ~stage:"verify" ~rule:check.Static.check_name f, no_repair)
          findings
  in
  let invariant_job (name, prefix, invariant) () =
    match under_prefix ~prefix compiled with
    | [] -> []
    | subset ->
        let finding = invariant subset in
        let verdict = Defense.of_finding ~stage:"verify" ~rule:name finding in
        let repair =
          if verdict.Defense.passed then no_repair
          else
            (* Repair the artifact the invariant blames, if it is
               part of the cone. *)
            match
              List.find_opt
                (fun c ->
                  String.equal c.Compiler.artifact_path finding.Defense.at
                  || String.equal c.Compiler.config_path finding.Defense.at)
                subset
            with
            | None -> no_repair
            | Some target ->
                fun () ->
                  let accepts json =
                    let patched =
                      List.map
                        (fun c ->
                          if String.equal c.Compiler.artifact_path target.Compiler.artifact_path
                          then with_json c json
                          else c)
                        subset
                    in
                    (invariant patched).Defense.ok
                  in
                  repair_for ~target ~accepts
        in
        [ verdict, repair ]
  in
  let test_job name test c () =
    let finding = test c in
    let verdict = Defense.of_finding ~stage:"verify" ~rule:name finding in
    let repair =
      if verdict.Defense.passed then no_repair
      else
        fun () ->
          let accepts json = (test (with_json c json)).Defense.ok in
          repair_for ~target:c ~accepts
    in
    [ verdict, repair ]
  in
  let jobs =
    List.map static_job t.static_checks
    @ List.map invariant_job t.invariants
    @ List.concat_map
        (fun (name, prefix, test) ->
          List.map (test_job name test) (under_prefix ~prefix compiled))
        t.tests
  in
  let pool =
    Option.value input.Pipeline.verify_pool ~default:(Cm_parallel.Pool.create ())
  in
  Cm_parallel.Pool.map_list pool (fun job -> job ()) jobs
  |> List.concat
  |> List.map (fun (verdict, repair) ->
         let verdict =
           if verdict.Defense.passed then verdict
           else { verdict with Defense.repair = repair () }
         in
         note t verdict)
