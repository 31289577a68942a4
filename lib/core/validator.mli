(** Config validators: invariants checked by the compiler on every
    config of a given type (§3.3, first line of defense).

    Two forms coexist, as in the paper:
    - {b combinator validators}, registered programmatically by the
      team owning the schema ("the scheduler team ... provides the
      validator job.thrift-cvalidator, which ensures that configs
      provided by other teams do not accidentally break the
      scheduler");
    - {b source validators}, CSL files named
      ["<Type>.thrift-cvalidator"] that define
      [def validate(cfg) = <bool expr>] and are discovered
      automatically from the source tree. *)

type check_result = Pass | Fail of string
(** The per-rule primitive.  Stage-level results are reported through
    the unified {!Defense.verdict} API — see {!verdicts}. *)

type rule = {
  rule_name : string;
  check : Cm_thrift.Value.t -> check_result;
  range : (string * int * int) option;
      (** [(field, min, max)] for rules that declare a numeric
          invariant — the raw material for {!Cm_verify}'s
          nearest-passing-value repair suggestions *)
}

(** {1 Combinators} *)

val rule : ?range:string * int * int -> string -> (Cm_thrift.Value.t -> check_result) -> rule

val field_int_range : field:string -> min:int -> max:int -> rule
(** Integer field within bounds (missing field passes — requiredness
    is the schema checker's job). *)

val field_nonempty_string : field:string -> rule

val all : rule list -> rule
(** Conjunction; fails with the first failing sub-rule's message. *)

(** {1 Registry} *)

type t

val create : unit -> t

val register : t -> type_name:string -> rule -> unit
(** Attach a combinator rule to a struct type.  Multiple rules per
    type accumulate. *)

val of_source :
  modules:Cm_lang.Eval.Modules.t -> type_name:string -> source:string -> (rule, string) result
(** Compile a CSL validator source: must define [validate] taking the
    config and returning a bool (or a string, interpreted as a
    failure message; empty string = pass).  The file is evaluated
    once, here; its imports are added to and read from [modules]. *)

val validate : t -> type_name:string -> Cm_thrift.Value.t -> check_result
(** Runs every rule registered for the type; [Pass] when none is
    registered. *)

val verdicts :
  t -> type_name:string -> path:string -> Cm_thrift.Value.t -> Defense.verdict list
(** The unified defense-stage surface: one {!Defense.verdict} (stage
    ["validator"]) per registered rule, passing or failing. *)

val declared_ranges : t -> type_name:string -> (string * (int * int)) list
(** Numeric invariants declared for a type via {!field_int_range} —
    [(field, (min, max))] pairs.  Rules folded through {!all} do not
    surface their ranges. *)
