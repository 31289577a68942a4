(** The unified defense-stage result API (§3.3, §6.4 defense in depth).

    Every layer of the pipeline that can bounce a change — compiler
    validators, the {!Cm_verify} correctness plane, Sandcastle CI,
    code review, the automated canary, and the landing strip — reports
    through the same structured {!verdict}: which stage spoke, which
    rule fired, which path is at fault, what happened, and (when a
    stage can compute one) a Tortoise-style minimal {!repair}
    suggestion.  {!Pipeline.outcome} collapses to
    [Landed | Rejected of rejection] on top of this type, replacing
    the per-stage [Rejected_*] variants and their ad-hoc payloads. *)

type repair = {
  origin : string;
      (** where the suggestion came from: ["validator-range"] (nearest
          passing value inside a declared invariant) or
          ["last-landed"] (previous committed value via
          [Repo.path_history]) *)
  suggestion : string;  (** replacement value / artifact text *)
  note : string;        (** human-readable rationale *)
}

type verdict = {
  stage : string;  (** producing defense layer, e.g. ["validator"],
                       ["verify"], ["sandcastle"], ["review"],
                       ["canary"], ["conflict"] *)
  rule : string;   (** rule / check id within the stage *)
  path : string;   (** offending source or artifact path; [""] when
                       the verdict is not about one path *)
  passed : bool;
  detail : string;
  repair : repair option;  (** only ever on failing verdicts *)
}

(** Raw outcome of one check body before it is stamped with its stage
    and rule — replaces the anonymous [(passed, detail)] tuples the
    defense layers used to traffic in. *)
type finding = { ok : bool; at : string; note : string }

(** A stage bouncing a change: the stage name plus every verdict the
    stage produced (passing ones included, for context). *)
type rejection = { failed_stage : string; verdicts : verdict list }

val repair : origin:string -> suggestion:string -> string -> repair
val finding : ?at:string -> ok:bool -> string -> finding
val pass : stage:string -> rule:string -> ?path:string -> string -> verdict
val fail : stage:string -> rule:string -> ?path:string -> ?repair:repair -> string -> verdict

val of_finding : stage:string -> rule:string -> finding -> verdict

val all_passed : verdict list -> bool
val failures : verdict list -> verdict list
val reject : stage:string -> verdict list -> rejection

val summary : rejection -> string
(** One line: the stage plus the first failing verdict. *)

val pp_verdict : Format.formatter -> verdict -> unit

val verdict_to_json : verdict -> Cm_json.Value.t
(** For surfacing verdicts through tooling (CLI, bench artifacts). *)
