(** The Landing Strip (§3.6): commits on behalf of committers.

    Diffs are queued first-come-first-served and pushed to the shared
    repository without requiring the committer's clone to be up to
    date.  Only a {e true} conflict — the diff touches a file that
    changed since its base — is rejected back to the author.

    The module also implements the {b direct-commit} baseline for the
    landing-strip ablation: each committer must first bring its clone
    up to date (paying a pull), and any commit that lands meanwhile
    forces another round, even when the files don't overlap — the
    contention spiral the landing strip exists to break. *)

type mode = Landing | Direct

type result =
  | Committed of Cm_vcs.Store.oid
  | Conflict of string list  (** conflicting paths *)

val conflict_verdicts : string list -> Defense.verdict list
(** The unified defense-stage view of a conflict rejection: one
    failing stage-["conflict"] verdict per conflicting path. *)

type submission = {
  author : string;
  message : string;
  base : Cm_vcs.Store.oid option;  (** head of the author's clone *)
  changes : Cm_vcs.Repo.change list;
}

type cost_model = {
  commit_cost : int -> float;
      (** seconds to push one commit, as a function of repository file
          count — "git is slow on a large repository" *)
  pull_cost : int -> float;
      (** seconds to bring a stale clone up to date (Direct mode) *)
}

val default_costs : cost_model
(** Calibrated to the paper's §6.3: ~5 s to commit at a repository
    size of hundreds of thousands of files. *)

type t

val create :
  ?mode:mode ->
  ?costs:cost_model ->
  Cm_sim.Engine.t ->
  Cm_vcs.Repo.t ->
  t

val submit :
  ?reads:string list ->
  ?tracer:Cm_trace.Tracer.t ->
  ?ctx:Cm_trace.Tracer.ctx ->
  t ->
  submission ->
  on_result:(result -> unit) ->
  unit
(** Queues a diff; the callback fires when it lands or is rejected.
    With [tracer]/[ctx] set, a [landing.commit] (or
    [landing.conflict]) span covering queue wait + push is recorded
    under the change's trace.

    [reads] is the diff's compilation read set: source paths the
    produced artifacts depend on but that the diff does not itself
    write (e.g. imported [.cinc] modules of the affected cone).  A
    change to a read path since [base] is treated as a conflict — the
    diff's artifacts were compiled against stale inputs, so carrying
    them forward would commit an inconsistent artifact set. *)

val committed : t -> int
val retries : t -> int
(** Direct mode only: extra update rounds forced by contention. *)
