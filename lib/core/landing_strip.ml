module Engine = Cm_sim.Engine
module Tracer = Cm_trace.Tracer

type mode = Landing | Direct

type result =
  | Committed of Cm_vcs.Store.oid
  | Conflict of string list

let conflict_verdicts paths =
  List.map
    (fun path ->
      Defense.fail ~stage:"conflict" ~rule:"stale-read-write" ~path
        "changed since the diff's base; artifacts were compiled against stale inputs")
    paths

type submission = {
  author : string;
  message : string;
  base : Cm_vcs.Store.oid option;
  changes : Cm_vcs.Repo.change list;
}

type cost_model = {
  commit_cost : int -> float;
  pull_cost : int -> float;
}

(* ~0.5 s on an empty repository, ~5 s at 500k files. *)
let default_costs =
  {
    commit_cost = (fun files -> 0.5 +. (float_of_int files *. 9.0e-6));
    pull_cost = (fun files -> 1.0 +. (float_of_int files *. 2.0e-5));
  }

type job = {
  sub : submission;
  reads : string list;
  on_result : result -> unit;
  (* tracer, context and submission time of a traced change; the
     landing span covers queue wait + conflict check + push. *)
  jtrace : (Tracer.t * Tracer.ctx * float) option;
}

type t = {
  mode : mode;
  costs : cost_model;
  engine : Engine.t;
  repo : Cm_vcs.Repo.t;
  queue : job Queue.t;
  mutable busy : bool;
  mutable ncommitted : int;
  mutable nretries : int;
}

let create ?(mode = Landing) ?(costs = default_costs) engine repo =
  {
    mode;
    costs;
    engine;
    repo;
    queue = Queue.create ();
    busy = false;
    ncommitted = 0;
    nretries = 0;
  }

(* The conflict window covers what the diff wrote AND what its
   compilation read: if a dependency of an affected config changed
   under the diff, its carried artifacts would be stale — bounce it. *)
let conflict_paths job = List.map fst job.sub.changes @ job.reads

let rec maybe_start t =
  if (not t.busy) && not (Queue.is_empty t.queue) then begin
    t.busy <- true;
    let job = Queue.pop t.queue in
    match t.mode with
    | Landing -> serve_landing t job
    | Direct -> serve_direct t job
  end

and finish t =
  t.busy <- false;
  maybe_start t

and do_commit t job =
  let files = Cm_vcs.Repo.file_count t.repo in
  ignore
    (Engine.schedule t.engine ~delay:(t.costs.commit_cost files) (fun () ->
         let oid =
           Cm_vcs.Repo.commit t.repo ~author:job.sub.author ~message:job.sub.message
             ~timestamp:(Engine.now t.engine) job.sub.changes
         in
         t.ncommitted <- t.ncommitted + 1;
         (match job.jtrace with
         | Some (tr, ctx, t0) ->
             ignore
               (Tracer.span tr ctx ~name:"landing.commit"
                  ~tags:
                    [ ("files", string_of_int (List.length job.sub.changes)) ]
                  ~t0 ~t1:(Engine.now t.engine) ())
         | None -> ());
         job.on_result (Committed oid);
         finish t))

and serve_landing t job =
  (* The landing strip itself resolves staleness: only true file
     conflicts bounce back to the author.  On the Merkle backend the
     conflict window costs O(commits since base x their changed paths)
     via per-commit change records; on the flat backend it re-diffs
     whole trees, which is what Figure 13 measures. *)
  match Cm_vcs.Repo.conflicts t.repo ~base:job.sub.base ~paths:(conflict_paths job) with
  | [] -> do_commit t job
  | conflicting ->
      ignore
        (Engine.schedule t.engine ~delay:0.2 (fun () ->
             (match job.jtrace with
             | Some (tr, ctx, t0) ->
                 ignore
                   (Tracer.span tr ctx ~name:"landing.conflict" ~t0
                      ~t1:(Engine.now t.engine) ())
             | None -> ());
             job.on_result (Conflict conflicting);
             finish t))

and serve_direct t job =
  let head = Cm_vcs.Repo.head t.repo in
  if job.sub.base = head then begin
    (* Clone is current: check real conflicts (none possible when base
       equals head) and push. *)
    do_commit t job
  end
  else begin
    (* git rejects the push: the committer must update first, even if
       the files do not overlap.  Pulling happens on the committer's
       machine (does not occupy the shared repository), then the diff
       rejoins the queue — unless the interim commits truly conflict. *)
    match Cm_vcs.Repo.conflicts t.repo ~base:job.sub.base ~paths:(conflict_paths job) with
    | [] ->
        t.nretries <- t.nretries + 1;
        let files = Cm_vcs.Repo.file_count t.repo in
        ignore
          (Engine.schedule t.engine ~delay:(t.costs.pull_cost files) (fun () ->
               let rebased = { job.sub with base = Cm_vcs.Repo.head t.repo } in
               Queue.push { job with sub = rebased } t.queue;
               maybe_start t));
        finish t
    | conflicting ->
        ignore
          (Engine.schedule t.engine ~delay:0.2 (fun () ->
               job.on_result (Conflict conflicting);
               finish t))
  end

let submit ?(reads = []) ?tracer ?(ctx = Tracer.none) t sub ~on_result =
  let jtrace =
    match tracer with
    | Some tr when Tracer.is_traced ctx -> Some (tr, ctx, Engine.now t.engine)
    | _ -> None
  in
  Queue.push { sub; reads; on_result; jtrace } t.queue;
  maybe_start t

let committed t = t.ncommitted
let retries t = t.nretries
