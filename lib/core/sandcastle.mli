(** Sandcastle: automated continuous-integration tests run in a
    sandbox against a proposed config change (§3.3).  Checks operate
    on the set of compiled artifacts the change produces and post
    their results back to the review. *)

type check = {
  check_name : string;
  run : Compiler.compiled list -> Defense.finding;
      (** the raw result; {!run} lifts it into a {!Defense.verdict}
          with stage ["sandcastle"] and rule [check_name] *)
}

type report = Defense.verdict list

type t

val create : ?with_defaults:bool -> unit -> t
(** [with_defaults] (default true) installs broad-coverage synthetic
    site tests:
    - every artifact's JSON parses back to itself (round-trip),
    - no artifact exceeds the inline size limit (1 MB — larger content
      belongs in PackageVessel),
    - no empty object exports,
    - typed artifacts carry a schema hash. *)

val add_check : t -> check -> unit

val run : ?pool:Cm_parallel.Pool.t -> t -> Compiler.compiled list -> report
(** Checks run only over artifacts whose content (digest + typing
    metadata) this instance has not already validated successfully;
    byte-identical artifacts from earlier passing runs are skipped.
    Failing artifacts are always re-checked.  Independent checks fan
    out across [pool]'s domains (default: a 1-domain pool, inline on
    the caller); the report order and the validated-set bookkeeping,
    done after the join, are identical at any domain count. *)

val passed : report -> bool

val revalidations_skipped : t -> int
(** Artifacts skipped because their exact bytes already passed. *)

val post_to_review : Review.t -> Review.diff_id -> report -> unit
