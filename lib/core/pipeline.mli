(** The end-to-end Configerator deployment pipeline (Figure 3).

    A proposed change flows through every defense layer of §3.3:

    {v
    edit -> compile (validators) -> verify (correctness plane)
         -> sandcastle CI -> code review -> automated canary
         -> landing strip -> git -> tailer -> Zeus
         -> observers -> proxies -> applications
    v}

    Any layer can bounce the change; only fully vetted changes reach
    the repository, and the tailer then distributes the new artifacts
    to the fleet.

    Compilation along the pipeline is {e incremental}: a proposal
    compiles only the affected cone of the change
    ({!Compiler.compile_affected}) against a copy of the live
    dependency index, sharing the live compiler's content-addressed
    artifact cache.  Artifacts whose bytes match the repository are
    carried forward instead of re-committed, and the diff's compilation
    read set is handed to the landing strip so a dependency that moved
    under the diff bounces it as a conflict. *)

type outcome =
  | Landed of Cm_vcs.Store.oid
  | Rejected of Defense.rejection
      (** every bouncing layer — compile/validators, the verify stage,
          sandcastle, review, canary, the landing strip — reports
          through the same structured {!Defense.rejection} *)

val outcome_stage : outcome -> string
(** ["landed"], or the stage that bounced the change — ["compile"],
    ["verify"], ["sandcastle"], ["review"], ["canary"], ["conflict"]. *)

(** {1 The verify stage}

    The {!Cm_verify} correctness plane runs between compile and
    sandcastle.  It is passed to {!create} as a function
    ([~verify:(Cm_verify.Verify.run registry)]) so the dependency arrow
    points from [Cm_verify] into the core; a pipeline without one skips
    the stage. *)

type verify_input = {
  verify_changes : (string * string) list;  (** the proposed edits *)
  verify_compiled : Compiler.compiled list; (** the compiled cone *)
  verify_tree : Source_tree.t;              (** the proposal clone *)
  verify_depgraph : Depgraph.t;             (** index over the clone *)
  verify_repo : Cm_vcs.Repo.t;              (** for last-landed repairs *)
  verify_validators : Validator.t;          (** for range-based repairs *)
  verify_pool : Cm_parallel.Pool.t option;
      (** the pipeline's domain pool ([None] means a 1-domain pool);
          the stage may fan independent checks out on it, provided the
          verdict list is identical at any domain count *)
}

type verify_stage = verify_input -> Defense.verdict list
(** A failing verdict rejects the change (stage ["verify"]); all
    verdicts, passing or not, are posted to the review diff. *)

type t

val create :
  ?validators:Validator.t ->
  ?verify:verify_stage ->
  ?jobs:int ->
  Cm_sim.Net.t ->
  Cm_zeus.Service.t ->
  Source_tree.t ->
  t
(** Builds the whole stack around an existing source tree: compiler,
    dependency service, review, sandcastle, landing strip on a fresh
    repository, tailer.  Call {!bootstrap} to seed the repository with
    the tree's current contents, then {!start}.

    [validators] run inside every compile; [verify] is the verify
    stage (none by default).  [jobs] (default 1, clamped to
    [1 .. cores]) sizes the landing path's domain pool: the compile
    fan-out, sandcastle checks and the verify stage run across [jobs]
    domains.
    [jobs = 1] is a 1-domain pool, which runs every stage inline on
    the caller.  Outcomes are identical at any [jobs]; only wall-clock
    changes. *)

val bootstrap : t -> unit
(** Compiles the whole tree and commits sources + artifacts as the
    initial revision (no review/canary — this is repo setup). *)

val start : t -> unit
(** Starts the tailer poll loop. *)

(** {1 Components (exposed for tests, benches and the mutator)} *)

val tree : t -> Source_tree.t
val compiler : t -> Compiler.t
val depgraph : t -> Depgraph.t
val review : t -> Review.t
val sandcastle : t -> Sandcastle.t
val landing : t -> Landing_strip.t
val repo : t -> Cm_vcs.Repo.t
val tailer : t -> Tailer.t
val zeus : t -> Cm_zeus.Service.t
val engine : t -> Cm_sim.Engine.t

val healthy_sampler : Canary.sampler
(** Baseline application model: low error rate, stable latency and
    CTR, no crashes. *)

val propose :
  t ->
  author:string ->
  ?title:string ->
  ?skip_canary:bool ->
  ?sampler:Canary.sampler ->
  (string * string) list ->
  on_done:(outcome -> unit) ->
  unit
(** Submit a config change: [(source path, new content)] pairs.  The
    pipeline runs asynchronously in simulated time; [on_done] fires
    with the final outcome.  The stages run in this order, and any of
    them can bounce the change:

    {v
    compile (+ validators, + the .canary spec) -> verify (if set)
      -> sandcastle -> review (after 120 s) -> canary (unless
      [skip_canary]) -> landing strip
    v}

    The review diff is posted by sandcastle, pass or fail (by verify
    when verify rejects).  With a tracer on the net, the change gets
    one trace ["change:<title>"]: each stage that ran records a
    ["pipeline.<stage>"] span, pass or fail, under the previous
    stage's span; the canary's phases nest under [pipeline.review],
    and the landing strip's [landing.commit] or [landing.conflict]
    under the last stage's span.  On success the source tree,
    dependency graph and repository are updated, and distribution to
    the fleet proceeds via the tailer. *)

val propose_sync :
  t ->
  author:string ->
  ?title:string ->
  ?skip_canary:bool ->
  ?sampler:Canary.sampler ->
  (string * string) list ->
  outcome
(** Runs the engine until the proposal resolves. *)

val landed_count : t -> int

