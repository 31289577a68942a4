module Engine = Cm_sim.Engine

type outcome =
  | Landed of Cm_vcs.Store.oid
  | Rejected of Defense.rejection

let outcome_stage = function
  | Landed _ -> "landed"
  | Rejected r -> r.Defense.failed_stage

type verify_input = {
  verify_changes : (string * string) list;
  verify_compiled : Compiler.compiled list;
  verify_tree : Source_tree.t;
  verify_depgraph : Depgraph.t;
  verify_repo : Cm_vcs.Repo.t;
  verify_validators : Validator.t;
  verify_pool : Cm_parallel.Pool.t option;
      (* the pipeline's domain pool ([None]: a 1-domain pool): the
         verify stage may fan independent checks out on it, as long as
         its verdict list is identical at any domain count *)
}

type verify_stage = verify_input -> Defense.verdict list

type t = {
  net : Cm_sim.Net.t;
  pzeus : Cm_zeus.Service.t;
  pcompiler : Compiler.t;  (* owns the live tree and its dependency index *)
  preview : Review.t;
  psandcastle : Sandcastle.t;
  planding : Landing_strip.t;
  prepo : Cm_vcs.Repo.t;
  ptailer : Tailer.t;
  ppool : Cm_parallel.Pool.t;
  pverify : verify_stage option;
  mutable nlanded : int;
}

(* Review policy: the first of these who is not the author reviews the
   diff, this long after it is posted. *)
let reviewers = [ "alice"; "bob"; "carol" ]
let review_delay = 120.0

let create ?validators ?verify ?(jobs = 1) net zeus tree =
  let engine = Cm_sim.Net.engine net in
  let repo = Cm_vcs.Repo.create () in
  (* One landing path: [jobs = 1] is a 1-domain pool, which runs every
     stage inline on the caller. *)
  let pool = Cm_parallel.Pool.create ~domains:jobs () in
  (* One compiler for the live tree; it owns the dependency index and
     the content-addressed artifact cache.  Proposal clones share the
     cache (keys are closure hashes, so sharing across trees is sound)
     and an O(1) copy of the index instead of re-indexing. *)
  let compiler = Compiler.create ?validators tree in
  {
    net;
    pzeus = zeus;
    pcompiler = compiler;
    preview = Review.create ();
    psandcastle = Sandcastle.create ();
    planding = Landing_strip.create engine repo;
    prepo = repo;
    ptailer = Tailer.create engine repo zeus;
    ppool = pool;
    pverify = verify;
    nlanded = 0;
  }

let tree t = Compiler.source_tree t.pcompiler
let compiler t = t.pcompiler
let depgraph t = Compiler.depgraph t.pcompiler
let review t = t.preview
let sandcastle t = t.psandcastle
let landing t = t.planding
let repo t = t.prepo
let tailer t = t.ptailer
let zeus t = t.pzeus
let engine t = Cm_sim.Net.engine t.net
let landed_count t = t.nlanded

let bootstrap t =
  let compiled, errors = Compiler.compile_all ~pool:t.ppool t.pcompiler in
  (match errors with
  | [] -> ()
  | e :: _ ->
      invalid_arg (Format.asprintf "Pipeline.bootstrap: tree does not compile: %a"
                     Compiler.pp_error e));
  let sources =
    List.map (fun (path, content) -> path, Some content) (Source_tree.snapshot (tree t))
  in
  let artifacts =
    List.filter_map
      (fun c ->
        if c.Compiler.artifact_path = c.Compiler.config_path then None
        else Some (c.Compiler.artifact_path, Some c.Compiler.json_text))
      compiled
  in
  if sources <> [] then
    ignore
      (Cm_vcs.Repo.commit t.prepo ~author:"bootstrap" ~message:"initial import"
         ~timestamp:(Engine.now (engine t)) (sources @ artifacts))

let start t = Tailer.start t.ptailer

let healthy_sampler ~node:_ ~test:_ ~cohort:_ =
  [ "error_rate", 0.01; "latency_ms", 100.0; "ctr", 0.05; "crashes", 0.0 ]

let pick_reviewer ~author =
  match List.find_opt (fun r -> not (String.equal r author)) reviewers with
  | Some r -> r
  | None -> "oncall"

(* Per-config canary spec: "a config is associated with a canary spec";
   a "<path>.canary" file next to the first changed path that has one
   overrides the default.  An unparsable spec is a compile error. *)
let canary_spec_of clone changed_paths =
  let spec_file path =
    let at = path ^ ".canary" in
    Option.map (fun text -> at, text) (Source_tree.read clone at)
  in
  match List.find_map spec_file changed_paths with
  | None -> Ok Canary.default_spec
  | Some (at, text) ->
      Result.map_error
        (fun message -> { Compiler.at; stage = Compiler.Validation; message })
        (Canary.spec_of_string text)

(* Schema-change safety: when a .thrift source changes, compare the new
   schema against the live one and post its breaking changes to the
   diff — the §6.4 incident where old client code could not read a
   config written under a new schema. *)
let post_schema_compat review diff_id ~live (path, content) =
  if Source_tree.kind_of_path path = Source_tree.Thrift then
    match Option.map Cm_thrift.Idl.parse (Source_tree.read live path),
          Cm_thrift.Idl.parse content with
    | Some (Ok reader), Ok writer -> (
        let breaking issue = issue.Cm_thrift.Compat.breaking in
        match List.filter breaking (Cm_thrift.Compat.can_read ~reader ~writer) with
        | [] -> ()
        | issues ->
            Review.post_test_result review diff_id ~name:("schema-compat:" ^ path) ~passed:false
              ~detail:
                (String.concat "; "
                   (List.map (Format.asprintf "%a" Cm_thrift.Compat.pp_issue) issues)))
    | _ -> ()

let propose t ~author ?(title = "config change") ?(skip_canary = false)
    ?(sampler = healthy_sampler) changes ~on_done =
  let eng = engine t in
  (* End-to-end tracing: one trace per proposed change, rooted here
     and carried through review, canary, landing, the tailer and the
     Zeus fan-out (see Cm_trace).  Untraced unless a tracer is
     attached to the net.  [ctx] is the last closed stage's span. *)
  let tracer = Cm_sim.Net.tracer t.net in
  let ctx =
    ref
      (match tracer with
      | Some tr -> Cm_trace.Tracer.new_trace tr ~name:("change:" ^ title)
      | None -> Cm_trace.Tracer.none)
  in
  (* The stage driver.  A stage runs, then hands back its span's tags
     and either a value or the verdicts that bounce the change.  The
     driver closes the stage's "pipeline.<name>" span from the stage's
     start, under the previous stage's span, pass or fail; [route] then
     continues or rejects at that stage.  [let*] keeps the asynchronous
     stages (review, canary, landing) as flat as the synchronous ones. *)
  let route stage k = function
    | Ok v -> k v
    | Error verdicts -> on_done (Rejected (Defense.reject ~stage verdicts))
  in
  let stage name run k =
    let t0 = Engine.now eng in
    run (fun tags result ->
        (match tracer with
        | Some tr ->
            ctx :=
              Cm_trace.Tracer.span tr !ctx ~name:("pipeline." ^ name) ~tags ~t0
                ~t1:(Engine.now eng) ()
        | None -> ());
        route name k result)
  in
  let ( let* ) m k = m k in
  (* 1. The author edits a development clone of the tree. *)
  let clone = Source_tree.copy (tree t) in
  List.iter (fun (path, content) -> Source_tree.write clone path content) changes;
  let changed_paths = List.map fst changes in
  let source_changes = List.map (fun (path, content) -> path, Some content) changes in
  (* 2. Compile only the affected cone, incrementally (validators run
     inside).  The clone shares the live dependency index's maps and
     the live compiler's content-addressed artifact cache, so cone
     members whose closure bytes did not change are cache hits. *)
  let clone_compiler =
    Compiler.create
      ~validators:(Compiler.validators t.pcompiler)
      ~cache:(Compiler.cache t.pcompiler)
      ~depgraph:(Depgraph.copy (depgraph t))
      clone
  in
  let* compiled, canary_spec =
    stage "compile" (fun ret ->
        let compiled, errors =
          Compiler.compile_affected ~pool:t.ppool clone_compiler ~changed:changed_paths
        in
        (* A path the repository cannot hold is refused here, not by
           [Repo.commit] inside the landing strip's event. *)
        let path_errors =
          List.filter_map
            (fun path ->
              Option.map
                (fun message -> { Compiler.at = path; stage = Compiler.Parse; message })
                (Cm_vcs.Repo.path_error path))
            changed_paths
        in
        let spec = canary_spec_of clone changed_paths in
        let errors = path_errors @ errors in
        let errors = match spec with Ok _ -> errors | Error e -> errors @ [ e ] in
        ret
          [ ("configs", string_of_int (List.length compiled));
            ("errors", string_of_int (List.length errors)) ]
          (match spec with
          | Ok spec when errors = [] -> Ok (compiled, spec)
          | _ -> Error (List.map Compiler.verdict_of_error errors)))
  in
  (* 2b. The verify stage (Cm_verify correctness plane): static
     cross-artifact checks and config tests over the compiled cone.
     A function, so Cm_verify depends on the core and not back. *)
  let* verify_report =
    match t.pverify with
    | None -> fun k -> k []
    | Some verify ->
        stage "verify" (fun ret ->
            let report =
              verify
                {
                  verify_changes = changes;
                  verify_compiled = compiled;
                  verify_tree = clone;
                  verify_depgraph = Compiler.depgraph clone_compiler;
                  verify_repo = t.prepo;
                  verify_validators = Compiler.validators t.pcompiler;
                  verify_pool = Some t.ppool;
                }
            in
            let passed = Defense.all_passed report in
            if not passed then begin
              (* Rejected before CI, but the verdicts and their repair
                 suggestions still go up on a review diff. *)
              let base = Cm_vcs.Repo.head t.prepo in
              let diff_id = Review.submit t.preview ~author ~title ~base source_changes in
              Review.post_verdicts t.preview diff_id report
            end;
            ret [ ("passed", string_of_bool passed) ]
              (if passed then Ok report else Error report))
  in
  let base = Cm_vcs.Repo.head t.prepo in
  (* Artifacts byte-identical to what the repository already holds
     are carried forward rather than re-written: committing a cache
     hit's bytes again would only create no-op churn downstream. *)
  let repo_changes =
    source_changes
    @ List.filter_map
        (fun c ->
          if c.Compiler.artifact_path = c.Compiler.config_path then None
          else
            match Cm_vcs.Repo.read_file t.prepo c.Compiler.artifact_path with
            | Some existing when String.equal existing c.Compiler.json_text -> None
            | _ -> Some (c.Compiler.artifact_path, Some c.Compiler.json_text))
        compiled
  in
  (* The compilation read set: sources the artifacts depend on that the
     diff does not write.  The landing strip bounces the diff if one
     moved since [base], so a consistent artifact set always lands. *)
  let reads =
    List.filter
      (fun path -> not (List.mem path changed_paths))
      (List.sort_uniq String.compare
         (List.concat_map (fun c -> c.Compiler.config_path :: c.Compiler.deps) compiled))
  in
  (* 3. Sandcastle CI in a sandbox.  The diff goes up for review with
     everything a reviewer should see, whether CI passed or not. *)
  let* diff_id =
    stage "sandcastle" (fun ret ->
        let report = Sandcastle.run ~pool:t.ppool t.psandcastle compiled in
        let diff_id = Review.submit t.preview ~author ~title ~base repo_changes in
        Sandcastle.post_to_review t.preview diff_id report;
        Review.post_verdicts t.preview diff_id verify_report;
        List.iter (post_schema_compat t.preview diff_id ~live:(tree t)) changes;
        (* §8 future work, implemented: flag high-risk updates on the
           diff from historical data.  Informational — reviewers decide. *)
        let now_days = Engine.now eng /. 86400.0 in
        List.iter
          (fun (path, content) ->
            let history = Risk.history_of_repo t.prepo (depgraph t) ~path ~now:now_days in
            let assessment =
              Risk.assess ~history ~now:now_days ~old_text:(Source_tree.read (tree t) path)
                ~new_text:content ~author ()
            in
            if assessment.Risk.level <> Risk.Low then
              Review.post_test_result t.preview diff_id
                ~name:(Printf.sprintf "risk-flag:%s" path)
                ~passed:true
                ~detail:(Format.asprintf "%a" Risk.pp assessment))
          changes;
        let passed = Sandcastle.passed report in
        ret [ ("passed", string_of_bool passed) ] (if passed then Ok diff_id else Error report))
  in
  (* 4. Human review after a delay. *)
  let* () =
    stage "review" (fun ret ->
        ignore
          (Engine.schedule eng ~delay:review_delay (fun () ->
               let reviewer = pick_reviewer ~author in
               ret [ ("reviewer", reviewer) ]
                 (Result.map_error
                    (fun reason -> [ Defense.fail ~stage:"review" ~rule:"approval" reason ])
                    (Review.approve t.preview diff_id ~reviewer)))))
  in
  (* 5. Automated canary. *)
  let* () =
    if skip_canary then fun k -> k ()
    else
      stage "canary" (fun ret ->
          Canary.run ~spec:canary_spec ?tracer ~ctx:!ctx eng (Cm_sim.Net.topology t.net)
            ~sampler
            ~on_done:(fun outcome ->
              ret []
                (match outcome with
                | Canary.Passed -> Ok ()
                | Canary.Failed failure -> Error [ Canary.verdict_of_failure failure ]))
            ())
  in
  (* 6. The landing strip commits, or bounces a diff whose write or
     read set moved since [base]. *)
  let* oid =
   fun k ->
    Landing_strip.submit ~reads ?tracer ~ctx:!ctx t.planding
      { Landing_strip.author; message = title; base; changes = repo_changes }
      ~on_result:(fun result ->
        route "conflict" k
          (match result with
          | Landing_strip.Committed oid -> Ok oid
          | Landing_strip.Conflict paths -> Error (Landing_strip.conflict_verdicts paths)))
  in
  (* The change is in: update the live tree and dependency index; the
     tailer distributes.  Park the trace context with the tailer so
     distribution lands in the same trace. *)
  List.iter (fun (path, _) -> Tailer.note_ctx t.ptailer ~path !ctx) repo_changes;
  List.iter (fun (path, content) -> Source_tree.write (tree t) path content) changes;
  Compiler.note_changed t.pcompiler changed_paths;
  t.nlanded <- t.nlanded + 1;
  on_done (Landed oid)

let propose_sync t ~author ?title ?skip_canary ?sampler changes =
  let result = ref None in
  propose t ~author ?title ?skip_canary ?sampler changes
    ~on_done:(fun outcome -> result := Some outcome);
  let eng = engine t in
  let rec drive () =
    match !result with
    | Some outcome -> outcome
    | None ->
        if Engine.step eng then drive ()
        else invalid_arg "Pipeline.propose_sync: simulation drained without outcome"
  in
  drive ()
