module Engine = Cm_sim.Engine

type outcome =
  | Landed of Cm_vcs.Store.oid
  | Rejected of Defense.rejection

(* Thin shim over the old six-variant interface: callers that only
   dispatched on the stage keep working unchanged. *)
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
  ptree : Source_tree.t;
  pcompiler : Compiler.t;
  pdep : Depgraph.t;
  preview : Review.t;
  psandcastle : Sandcastle.t;
  planding : Landing_strip.t;
  prepo : Cm_vcs.Repo.t;
  ptailer : Tailer.t;
  reviewers : string list;
  review_delay : float;
  canary_spec : Canary.spec;
  ppool : Cm_parallel.Pool.t;
  mutable pverify : verify_stage option;
  mutable nlanded : int;
}

let create ?(reviewers = [ "alice"; "bob"; "carol" ]) ?(review_delay = 120.0)
    ?(canary_spec = Canary.default_spec) ?validators ?(landing_mode = Landing_strip.Landing)
    ?verify ?(jobs = 1) net zeus tree =
  let engine = Cm_sim.Net.engine net in
  let repo = Cm_vcs.Repo.create () in
  (* One landing path: [jobs = 1] is a 1-domain pool, which runs every
     stage inline on the caller. *)
  let pool = Cm_parallel.Pool.create ~domains:jobs () in
  (* One compiler for the live tree; it owns the dependency index and
     the content-addressed artifact cache.  Proposal clones share the
     cache (keys are closure hashes, so sharing across trees is sound)
     and copy the index instead of re-scanning. *)
  let compiler = Compiler.create ?validators tree in
  {
    net;
    pzeus = zeus;
    ptree = tree;
    pcompiler = compiler;
    pdep = Compiler.depgraph compiler;
    preview = Review.create ();
    psandcastle = Sandcastle.create ();
    planding = Landing_strip.create ~mode:landing_mode engine repo;
    prepo = repo;
    ptailer = Tailer.create engine repo zeus;
    reviewers;
    review_delay;
    canary_spec;
    ppool = pool;
    pverify = verify;
    nlanded = 0;
  }

let set_verify t stage = t.pverify <- Some stage

let tree t = t.ptree
let compiler t = t.pcompiler
let depgraph t = t.pdep
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
    List.map (fun (path, content) -> path, Some content) (Source_tree.snapshot t.ptree)
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

let pick_reviewer t ~author =
  match List.find_opt (fun r -> not (String.equal r author)) t.reviewers with
  | Some r -> r
  | None -> "oncall"

let propose t ~author ?(title = "config change") ?(skip_canary = false) ?sampler changes
    ~on_done =
  let eng = engine t in
  let sampler = match sampler with Some s -> s | None -> healthy_sampler in
  (* End-to-end tracing: one trace per proposed change, rooted here
     and carried through review, canary, landing, the tailer and the
     Zeus fan-out (see Cm_trace).  Untraced unless a tracer is
     attached to the net. *)
  let tracer = Cm_sim.Net.tracer t.net in
  let t_submit = Engine.now eng in
  let root_ctx =
    match tracer with
    | Some tr -> Cm_trace.Tracer.new_trace tr ~name:("change:" ^ title)
    | None -> Cm_trace.Tracer.none
  in
  let stage_span name ?tags t0 ctx =
    match tracer with
    | Some tr -> Cm_trace.Tracer.span tr ctx ~name ?tags ~t0 ~t1:(Engine.now eng) ()
    | None -> ctx
  in
  (* 1. The author edits a development clone of the tree. *)
  let clone = Source_tree.copy t.ptree in
  List.iter (fun (path, content) -> Source_tree.write clone path content) changes;
  (* 2. Compile only the affected cone, incrementally (validators run
     inside).  The clone copies the live dependency index instead of
     re-scanning the whole tree, and shares the live compiler's
     content-addressed artifact cache: configs inside the cone whose
     closure bytes did not actually change are cache hits. *)
  let changed_paths = List.map fst changes in
  let clone_compiler =
    Compiler.create
      ~validators:(Compiler.validators t.pcompiler)
      ~cache:(Compiler.cache t.pcompiler)
      ~depgraph:(Depgraph.copy t.pdep)
      clone
  in
  let compiled, errors =
    Compiler.compile_affected ~pool:t.ppool clone_compiler ~changed:changed_paths
  in
  (* Per-config canary spec: "a config is associated with a canary
     spec"; a "<path>.canary" file in the tree overrides the default. *)
  let spec_result =
    let rec find = function
      | [] -> Ok t.canary_spec
      | path :: rest -> (
          match Source_tree.read clone (path ^ ".canary") with
          | None -> find rest
          | Some text -> (
              match Canary.spec_of_string text with
              | Ok spec -> Ok spec
              | Error message ->
                  Error
                    {
                      Compiler.at = path ^ ".canary";
                      stage = Compiler.Validation;
                      message;
                    }))
    in
    find (List.map fst changes)
  in
  let errors =
    match spec_result with Ok _ -> errors | Error e -> errors @ [ e ]
  in
  let root_ctx =
    stage_span "pipeline.compile"
      ~tags:
        [
          ("configs", string_of_int (List.length compiled));
          ("errors", string_of_int (List.length errors));
        ]
      t_submit root_ctx
  in
  if errors <> [] then
    on_done
      (Rejected (Defense.reject ~stage:"compile" (List.map Compiler.verdict_of_error errors)))
  else begin
    (* 2b. The verify stage (Cm_verify correctness plane) sits between
       compile and sandcastle: static cross-artifact checks and config
       tests run over the compiled cone.  Attached as a function so the
       dependency arrow points from Cm_verify into the core, not the
       other way around. *)
    let t_verify = Engine.now eng in
    let verify_report =
      match t.pverify with
      | None -> []
      | Some stage ->
          stage
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
    let root_ctx =
      match t.pverify with
      | None -> root_ctx
      | Some _ ->
          stage_span "pipeline.verify"
            ~tags:[ ("passed", string_of_bool (Defense.all_passed verify_report)) ]
            t_verify root_ctx
    in
    if not (Defense.all_passed verify_report) then begin
      (* Rejected before CI — but the verdicts (and any attached
         repair suggestions) are still surfaced through the review
         tool, like sandcastle results would be. *)
      let base = Cm_vcs.Repo.head t.prepo in
      let repo_changes = List.map (fun (path, content) -> path, Some content) changes in
      let diff_id = Review.submit t.preview ~author ~title ~base repo_changes in
      List.iter (Review.post_verdict t.preview diff_id) verify_report;
      on_done (Rejected (Defense.reject ~stage:"verify" verify_report))
    end
    else begin
    let canary_spec = match spec_result with Ok s -> s | Error _ -> t.canary_spec in
    (* 3. Sandcastle CI in a sandbox; results are posted to the diff. *)
    let t_ci = Engine.now eng in
    let report = Sandcastle.run ~pool:t.ppool t.psandcastle compiled in
    let root_ctx =
      stage_span "pipeline.sandcastle"
        ~tags:[ ("passed", string_of_bool (Sandcastle.passed report)) ]
        t_ci root_ctx
    in
    let base = Cm_vcs.Repo.head t.prepo in
    (* Artifacts byte-identical to what the repository already holds
       are carried forward rather than re-written: a cone member whose
       compile was a cache hit produces the committed bytes again, and
       committing them would only create no-op churn downstream. *)
    let repo_changes =
      List.map (fun (path, content) -> path, Some content) changes
      @ List.filter_map
          (fun c ->
            if c.Compiler.artifact_path = c.Compiler.config_path then None
            else
              match Cm_vcs.Repo.read_file t.prepo c.Compiler.artifact_path with
              | Some existing when String.equal existing c.Compiler.json_text -> None
              | _ -> Some (c.Compiler.artifact_path, Some c.Compiler.json_text))
          compiled
    in
    (* The compilation read set: sources the carried/committed artifacts
       depend on but that the diff itself does not write.  The landing
       strip treats a change to a read path since [base] as a conflict,
       so a consistent artifact set always lands. *)
    let reads =
      List.filter
        (fun path -> not (List.mem path changed_paths))
        (List.sort_uniq String.compare
           (List.concat_map
              (fun c -> c.Compiler.config_path :: c.Compiler.deps)
              compiled))
    in
    let diff_id = Review.submit t.preview ~author ~title ~base repo_changes in
    Sandcastle.post_to_review t.preview diff_id report;
    (* Verify-stage verdicts join the diff's test record too, so a
       reviewer sees the whole defense picture in one place. *)
    List.iter (Review.post_verdict t.preview diff_id) verify_report;
    (* Schema-change safety: when a .thrift source changes, compare the
       new schema against the committed one and surface breaking
       changes — the §6.4 incident where old client code could not
       read a config written under a new schema. *)
    List.iter
      (fun (path, content) ->
        if Source_tree.kind_of_path path = Source_tree.Thrift then
          match Source_tree.read t.ptree path, Cm_thrift.Idl.parse content with
          | Some old_source, Ok new_schema -> (
              match Cm_thrift.Idl.parse old_source with
              | Ok old_schema ->
                  let issues =
                    List.filter
                      (fun issue -> issue.Cm_thrift.Compat.breaking)
                      (Cm_thrift.Compat.can_read ~reader:old_schema ~writer:new_schema)
                  in
                  if issues <> [] then
                    Review.post_test_result t.preview diff_id
                      ~name:(Printf.sprintf "schema-compat:%s" path)
                      ~passed:false
                      ~detail:
                        (String.concat "; "
                           (List.map
                              (fun issue ->
                                Format.asprintf "%a" Cm_thrift.Compat.pp_issue issue)
                              issues))
              | Error _ -> ())
          | _ -> ())
      changes;
    (* §8 future work, implemented: flag high-risk updates on the diff
       from historical data.  Informational — reviewers decide. *)
    let now_days = Engine.now eng /. 86400.0 in
    List.iter
      (fun (path, content) ->
        let history = Risk.history_of_repo t.prepo t.pdep ~path ~now:now_days in
        let assessment =
          Risk.assess ~history ~now:now_days ~old_text:(Source_tree.read t.ptree path)
            ~new_text:content ~author ()
        in
        if assessment.Risk.level <> Risk.Low then
          Review.post_test_result t.preview diff_id
            ~name:(Printf.sprintf "risk-flag:%s" path)
            ~passed:true
            ~detail:(Format.asprintf "%a" Risk.pp assessment))
      changes;
    if not (Sandcastle.passed report) then
      on_done (Rejected (Defense.reject ~stage:"sandcastle" report))
    else begin
      (* 4. Human review after a delay. *)
      let t_review = Engine.now eng in
      ignore
        (Engine.schedule eng ~delay:t.review_delay (fun () ->
             let reviewer = pick_reviewer t ~author in
             match Review.approve t.preview diff_id ~reviewer with
             | Error reason ->
                 on_done
                   (Rejected
                      (Defense.reject ~stage:"review"
                         [ Defense.fail ~stage:"review" ~rule:"approval" reason ]))
             | Ok () ->
                 let ctx =
                   stage_span "pipeline.review"
                     ~tags:[ ("reviewer", reviewer) ]
                     t_review root_ctx
                 in
                 (* 5. Automated canary. *)
                 let continue_to_landing ctx =
                   Landing_strip.submit ~reads ?tracer ~ctx t.planding
                     { Landing_strip.author; message = title; base; changes = repo_changes }
                     ~on_result:(fun result ->
                       match result with
                       | Landing_strip.Conflict paths ->
                           on_done
                             (Rejected
                                (Defense.reject ~stage:"conflict"
                                   (Landing_strip.conflict_verdicts paths)))
                       | Landing_strip.Committed oid ->
                           (* The change is in: update the live tree and
                              dependency index; the tailer distributes.
                              Park the trace context with the tailer so
                              distribution lands in the same trace. *)
                           List.iter
                             (fun (path, _) -> Tailer.note_ctx t.ptailer ~path ctx)
                             repo_changes;
                           List.iter
                             (fun (path, content) -> Source_tree.write t.ptree path content)
                             changes;
                           Compiler.note_changed t.pcompiler changed_paths;
                           t.nlanded <- t.nlanded + 1;
                           on_done (Landed oid))
                 in
                 if skip_canary then continue_to_landing ctx
                 else begin
                   let t_canary = Engine.now eng in
                   Canary.run ~spec:canary_spec ?tracer ~ctx eng
                     (Cm_sim.Net.topology t.net) ~sampler
                     ~on_done:(fun canary_outcome ->
                       match canary_outcome with
                       | Canary.Failed failure ->
                           on_done
                             (Rejected
                                (Defense.reject ~stage:"canary"
                                   [ Canary.verdict_of_failure failure ]))
                       | Canary.Passed ->
                           continue_to_landing
                             (stage_span "pipeline.canary" t_canary ctx))
                     ()
                 end))
    end
    end
  end

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
