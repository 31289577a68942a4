(** Static cross-artifact checks over a proposed change's compiled
    cone — the first half of the verify stage.

    Each check inspects the cone's sources and artifacts {e together}
    and returns failure findings; the registry ({!Verify}) lifts them
    into stage-["verify"] verdicts.  Unlike validators, which see one
    config value at a time, these checks see relations {e between}
    files — the error class that slips past per-config validation.

    Checks are scoped to the change's cone (the compiled configs plus
    their transitive import closures), so a pre-existing oddity in an
    untouched corner of the tree cannot bounce an unrelated change.
    No check parses: they read the outlines ({!Core.Depgraph.outline})
    that the dependency graph kept when it indexed each source. *)

type check = {
  check_name : string;
  run :
    outlines:(string * Core.Depgraph.item list) list ->
    compiled:Core.Compiler.compiled list ->
    Core.Defense.finding list;
      (** [outlines] is the cone's CSL sources, from {!cone_outlines};
          returns failure findings only — an empty list means the
          check passed *)
}

val cone_outlines :
  Core.Depgraph.t -> Core.Compiler.compiled list -> (string * Core.Depgraph.item list) list
(** The outlines of the cone's CSL sources ([.cconf], [.cinc],
    validators): every compiled config and everything it imports, in
    sorted path order, as the dependency graph over the proposed tree
    indexed them.  Sources that are missing or do not parse are left
    out — they are the compiler's to report.  {!Verify.run} builds
    this list once per change and hands it to every check. *)

val cycles : check
(** Import cycles among the cone's CSL sources.  The evaluator aborts
    on a cycle it actually walks; this catches {e latent} cycles —
    through imports a config does not currently reach at runtime —
    before they bite whoever adds the triggering reference. *)

val shadowed_exports : check
(** A [Bind]/[Def] that silently rebinds a name an earlier [import]
    brought in, or two imports exporting the same name: the classic
    "my constant was quietly overridden" error. *)

val artifact_collisions : check
(** Two configs in the cone compiling to the same artifact path —
    whichever lands last silently wins. *)

val all : check list
(** The standard set, in the order above. *)
