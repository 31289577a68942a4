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
    The cone is parsed once per change ({!cone_files}) and every check
    reads the same parsed files, so no check re-reads the tree. *)

type check = {
  check_name : string;
  run :
    files:(string * Cm_lang.Ast.file) list ->
    compiled:Core.Compiler.compiled list ->
    Core.Defense.finding list;
      (** [files] is the cone's parsed sources, from {!cone_files};
          returns failure findings only — an empty list means the
          check passed *)
}

val cone_files :
  Core.Source_tree.t -> Core.Compiler.compiled list -> (string * Cm_lang.Ast.file) list
(** The cone's CSL sources ([.cconf], [.cinc], validators), each
    parsed once: every compiled config and everything it imports, in
    sorted path order.  Sources that are missing or do not parse are
    left out — they are the compiler's to report.  {!Verify.run}
    builds this list once per change and hands it to every check. *)

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
