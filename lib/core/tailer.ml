module Engine = Cm_sim.Engine
module Tracer = Cm_trace.Tracer

type t = {
  poll_interval : float;
  is_artifact : string -> bool;
  engine : Engine.t;
  repo : Cm_vcs.Repo.t;
  zeus : Cm_zeus.Service.t;
  mutable last_seen : Cm_vcs.Store.oid option;
  mutable running : bool;
  mutable nwrites : int;
  mutable nsuppressed : int;
  (* Trace contexts of landed-but-not-yet-distributed artifacts: the
     pipeline parks the change's context here at commit time; the next
     poll picks it up, records the poll-wait span and threads the
     context into the Zeus write. *)
  pending_ctx : (string, Tracer.ctx * float) Hashtbl.t;
}

let default_is_artifact path =
  match Source_tree.kind_of_path path with
  | Source_tree.Raw -> true
  | Source_tree.Cconf | Source_tree.Cinc | Source_tree.Thrift | Source_tree.Cvalidator ->
      false

let create ?(poll_interval = 5.0) ?(is_artifact = default_is_artifact) engine repo zeus =
  {
    poll_interval;
    is_artifact;
    engine;
    repo;
    zeus;
    last_seen = None;
    running = false;
    nwrites = 0;
    nsuppressed = 0;
    pending_ctx = Hashtbl.create 16;
  }

let note_ctx t ~path ctx =
  if Tracer.is_traced ctx && t.is_artifact path then
    Hashtbl.replace t.pending_ctx path (ctx, Engine.now t.engine)

let take_ctx t path =
  match Hashtbl.find_opt t.pending_ctx path with
  | None -> Tracer.none
  | Some (ctx, since) ->
      Hashtbl.remove t.pending_ctx path;
      (match Cm_sim.Net.tracer (Cm_zeus.Service.net_of t.zeus) with
      | Some tr ->
          Tracer.span tr ctx ~name:"tailer.poll_wait" ~t0:since
            ~t1:(Engine.now t.engine) ()
      | None -> ctx)

let poll_once t =
  let head = Cm_vcs.Repo.head t.repo in
  if head <> t.last_seen then begin
    (match head with
    | None -> ()
    | Some head_oid ->
        (* O(changed) on the Merkle backend: changed_since replays
           commit change records and changed_between walks only the
           differing subtrees, so a poll over a huge repo costs what
           actually moved. *)
        let touched = Cm_vcs.Repo.changed_since t.repo ~base:t.last_seen in
        (* Content-level endpoint diff: a path whose bytes ended up
           back where they started since the last poll (e.g. an
           emergency rollback landing between polls) is already what
           the fleet holds — issuing the write would only churn Zeus
           watches. *)
        let dirty = Hashtbl.create 32 in
        List.iter
          (fun path -> Hashtbl.replace dirty path ())
          (Cm_vcs.Repo.changed_between t.repo ~base:t.last_seen ~head:head_oid);
        (* The poll's writes go to Zeus as one transaction, in
           [touched] order: one quorum round, and a landing commits all
           or none. *)
        let writes =
          List.filter_map
            (fun path ->
              if not (t.is_artifact path) then None
              else if not (Hashtbl.mem dirty path) then begin
                t.nsuppressed <- t.nsuppressed + 1;
                None
              end
              else
                match Cm_vcs.Repo.read_file t.repo path with
                | Some data ->
                    t.nwrites <- t.nwrites + 1;
                    (* The artifact digest rides along so Zeus can dedup
                       byte-identical rewrites on the wire. *)
                    Some
                      {
                        Cm_zeus.Service.path;
                        data;
                        digest = Some (Compiler.digest_of_text data);
                        ctx = take_ctx t path;
                      }
                | None -> None (* deleted; distribution of deletions is a no-op *))
            touched
        in
        Cm_zeus.Service.write_all t.zeus writes);
    t.last_seen <- head
  end

let rec loop t =
  if t.running then
    ignore
      (Engine.schedule t.engine ~delay:t.poll_interval (fun () ->
           if t.running then begin
             poll_once t;
             loop t
           end))

let start t =
  if not t.running then begin
    t.running <- true;
    loop t
  end

let stop t = t.running <- false
let writes_issued t = t.nwrites
let writes_suppressed t = t.nsuppressed
let force_poll t = poll_once t
