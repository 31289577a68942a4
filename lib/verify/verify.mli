(** The verify-stage registry: the correctness plane that runs between
    compile and sandcastle ({!Core.Pipeline}'s [verify] hook).

    Three kinds of checks live here, all reporting through the unified
    {!Core.Defense} API:
    - {b static checks} ({!Static}) — cross-artifact analysis of the
      compiled cone (dependency cycles, shadowed exports, artifact
      collisions);
    - {b invariants} — cross-config predicates registered per
      path-prefix, run over every compiled artifact under the prefix
      at once (e.g. "the ports in jobs/ are pairwise distinct");
    - {b config tests} ({!Consumers}) — consumer functions registered
      per path-prefix, run against each proposed artifact value
      individually.

    On failure the registry asks {!Repair} for a Tortoise-style
    minimal repair — nearest value passing the failing check from a
    declared validator range, else the last-landed value — and
    attaches it to the verdict, which the pipeline surfaces through
    review and the [configerator verify] CLI verb.

    A freshly created registry with nothing registered produces no
    verdicts: attaching it to a pipeline is behavior-preserving. *)

type invariant = Core.Compiler.compiled list -> Core.Defense.finding
(** Sees every compiled artifact under its prefix at once. *)

type t

val create : ?static_checks:Static.check list -> unit -> t
(** [static_checks] defaults to none; pass {!Static.all} for the
    standard cross-artifact set. *)

val standard : unit -> t
(** [create ~static_checks:Static.all ()]. *)

val register_invariant : t -> name:string -> prefix:string -> invariant -> unit
(** The invariant runs whenever the compiled cone contains at least
    one config or artifact path starting with [prefix] ([""] matches
    everything). *)

val register_test : t -> name:string -> prefix:string -> Consumers.test -> unit
(** The test runs once per compiled artifact under [prefix]. *)

val is_empty : t -> bool
(** No static checks, invariants, or tests registered. *)

val run : t -> Core.Pipeline.verify_input -> Core.Defense.verdict list
(** The verify stage itself.  An empty registry returns no verdicts;
    otherwise one verdict per static check (pass or fail), per
    applicable invariant, and per (test, artifact) pair.  Failing
    verdicts carry a repair suggestion when {!Repair.suggest} finds a
    candidate that passes the failing check.  Pass it to
    {!Core.Pipeline.create} as [~verify] to run it as the pipeline's
    verify stage. *)

(** {1 Counters} *)

val checks_run : t -> int
(** Verdicts produced over the registry's lifetime. *)

val failures : t -> int
val repairs_suggested : t -> int
