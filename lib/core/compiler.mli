(** The Configerator compiler (§3.1, Figure 2).

    Compiling a [*.cconf] source:
    + evaluate the CSL program (resolving [import]/[import_thrift]
      through the source tree),
    + take its exported object,
    + check it against the Thrift schema (normalizing defaults),
    + run every validator registered for its type, including
      [<Type>.thrift-cvalidator] sources discovered in the tree,
    + serialize to canonical JSON.

    Raw configs (non-CSL files) pass through unchanged, except that
    files ending in [.json] must parse.

    Compilation is {e incremental}: the compiler owns a {!Depgraph}
    over its tree and memoizes artifacts by the content hash of each
    config's transitive source closure.  {!compile_affected} is the
    per-change entry point — it recompiles only the changed cone, and
    within the cone only configs whose closure bytes actually changed;
    everything else is served from the {!Cache}, which can be shared
    between compilers (e.g. the live tree and per-proposal clones). *)

type compiled = {
  config_path : string;       (** source path, e.g. "jobs/cache_job.cconf" *)
  artifact_path : string;     (** output path, e.g. "jobs/cache_job.json" *)
  json : Cm_json.Value.t;
  json_text : string;         (** compact serialization, the distributed bytes *)
  digest : string;            (** content hash of [json_text] — what the tailer
                                  and CI use to recognize unchanged artifacts *)
  type_name : string option;  (** struct type of the export, if typed *)
  schema : Cm_thrift.Schema.t;
      (** union of the imported Thrift schemas (empty for raw configs);
          what a UI needs to edit the object field-by-field *)
  schema_hash : string option;
  deps : string list;         (** every import touched, source-tree paths *)
}

type error = {
  at : string;     (** source path *)
  stage : stage;
  message : string;
}

and stage = Parse | Eval | Schema | Validation | Serialize

val pp_error : Format.formatter -> error -> unit
val stage_name : stage -> string

val verdict_of_error : error -> Defense.verdict
(** The unified defense-stage view of a compile error: stage
    ["validator"] for {!Validation} failures (the paper's first
    defense layer), ["compile"] otherwise. *)

val digest_of_text : string -> string
(** The artifact digest function (hex); [compiled.digest =
    digest_of_text compiled.json_text]. *)

(** Artifact memo table: one slot per config path, holding the
    artifact last compiled for that path and its closure key (the raw
    16-byte digest that {!closure_hash} shows in hex).  A probe hits
    only when the slot's key equals the target's current key, so a
    table can be shared between compilers over different trees:
    identical closure bytes imply an identical artifact.  A successful
    miss replaces the slot; an error leaves it as it was.  The table
    thus holds at most one artifact per config path ever compiled
    through it -- bounded by the tree, with no eviction -- and a
    change back to an earlier closure of a path compiles again.

    The table belongs to the domain that compiles through it; pool
    workers never touch it.  A pooled compile probes it once per
    target before the fan-out and makes every write -- counting,
    replacing slots -- itself at the join, in sorted target order, so
    the table's slots and counters are identical at any domain
    count. *)
module Cache : sig
  type t

  val create : unit -> t
  val hits : t -> int
  val misses : t -> int
  val size : t -> int
  (** Number of slots, i.e. of config paths holding an artifact. *)
end

type t

val create :
  ?validators:Validator.t ->
  ?cache:Cache.t ->
  ?depgraph:Depgraph.t ->
  Source_tree.t ->
  t
(** [depgraph], when given, must already index [tree]: a proposal's
    clone passes an O(1) {!Depgraph.copy} of the live index, sharing
    its maps, instead of re-indexing.  Without it the compiler indexes
    [tree] with {!Depgraph.of_tree}.  [cache] defaults to a fresh empty
    table. *)

val validators : t -> Validator.t
val source_tree : t -> Source_tree.t
val depgraph : t -> Depgraph.t
val cache : t -> Cache.t

val module_evaluations : t -> int
(** Module evaluations made by this compiler so far.  Every compile
    call ({!compile}, {!compile_all}, {!compile_targets},
    {!compile_affected}) builds one module table, evaluates in it each
    module that its cache-missing targets and the tree's validators
    import (transitively) once, and drops it on return. *)

val compile : t -> string -> (compiled, error) result
(** Compile one [*.cconf] or raw config by source path — always
    re-evaluates; no memoization.  Builds the same validator view as
    {!compile_all} (the validator closure and each type's evaluated
    source validator) and its own module table, so it costs the
    config's closure plus the tree's validators, never a walk of the
    tree. *)

val compile_all : ?pool:Cm_parallel.Pool.t -> t -> (compiled list * error list)
(** Compile every config in the tree ([*.cconf] + raw), through the
    memo table, in one fan-out across [pool]'s domains: no compile
    reads another config's artifact, so the targets need no order.
    [pool] defaults to a 1-domain pool, which compiles inline on the
    caller.  Before the fan-out the caller keys each unique target once
    and probes the {!Cache} once per key, and for the misses
    builds one immutable validator view (the validator closure and each
    type's evaluated source validator) and one module table holding
    every module they import, each evaluated once
    ({!Cm_lang.Eval.Modules}).  Workers compile the misses, reading
    only the tree, that view and the table; the caller updates the
    cache at the one join, in sorted target order.  The result —
    artifact list, error list and ordering, the cache's entries and
    counters — is identical at any domain count. *)

val compile_targets :
  ?pool:Cm_parallel.Pool.t -> t -> string list -> (compiled list * error list)
(** {!compile_all} over the given source paths instead of every config:
    one validator view and one memoized fan-out for all of them, each
    unique path compiled once.  Results and errors come back in the
    order of the paths (a duplicate path appears twice); a path that is
    missing or not a config root is an error. *)

val note_changed : t -> string list -> unit
(** Re-index the given paths in the compiler's dependency graph after
    their tree content changed ({!Depgraph.update_file} per path). *)

val compile_affected :
  ?pool:Cm_parallel.Pool.t -> t -> changed:string list -> (compiled list * error list)
(** The incremental entry point: re-index [changed], compute the
    affected cone ({!Depgraph.affected_configs}), and compile it
    through the memo table.  Configs outside the cone are untouched;
    configs inside the cone whose transitive closure bytes are
    unchanged are cache hits.  The cone compiles on [pool] in one
    fan-out, with output identical at any domain count (see
    {!compile_all}). *)

val closure_hash : t -> string -> string
(** Content hash of a config's transitive source closure (its own
    source, its import closure, and every validator source with the
    validators' own imports), each file as its path and the digest
    of its content, in hex; a memo slot holds the same digest, raw.  The validator part comes
    from {!Source_tree}'s validator index, so a key costs its closure
    plus the validators, independent of tree size; a compile call
    computes the validator closure once, not once per key, and hashes
    each file once, not once per key that contains it. *)

val artifact_path_of : string -> string
(** ["a/b.cconf" -> "a/b.json"]; raw paths map to themselves. *)
