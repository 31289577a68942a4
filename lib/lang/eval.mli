(** CSL evaluator.

    Evaluation is deterministic and side-effect free: a config program
    maps to the same exported object every time, which is what lets
    the Configerator compiler treat recompilation as a pure function
    of the source files (§3.1). *)

type value =
  | V_null
  | V_bool of bool
  | V_int of int
  | V_float of float
  | V_str of string
  | V_list of value list
  | V_map of (value * value) list
  | V_struct of string * (string * value) list
  | V_enum of string * string
  | V_closure of closure
  | V_builtin of string * (runtime -> Ast.pos -> value list -> value)
      (** a builtin receives, at each call, the running evaluation *)

(** What a builtin may ask of the running evaluation. *)
and runtime = {
  call : value -> value list -> value;  (** apply a function value ([map], [filter]) *)
  charge : Ast.pos -> int -> unit;
      (** spend [n] steps of the budget on a result of length [n]
          before building it; fails the run when the budget is spent *)
}

and closure

type error = { line : int; message : string }

exception Runtime_error of error

val pp_error : Format.formatter -> error -> unit
val pp_value : Format.formatter -> value -> unit

val value_equal : value -> value -> bool
(** Structural; raises {!Runtime_error} when comparing functions. *)

type outcome = {
  bindings : (string * value) list;
      (** top-level [Bind]/[Def] bindings of the root file, in
          definition order, each at its final value (an import after
          a binding may rebind it); imported names are not listed *)
  export : value option;
      (** last [export] of the root file; imported files' exports are
          ignored — the paper's "export_if_last" semantics *)
  schema : Cm_thrift.Schema.t;
      (** union of all transitively imported Thrift schemas *)
  loaded : string list;
      (** every import path touched, in first-load order — the raw
          material of the Dependency Service *)
}

(** The module table: every [import]ed module parsed and evaluated
    once, shared by all the runs of one compile.

    A module evaluates by itself, as the root of its own run: its value
    depends only on its source and what it imports, never on who
    imports it.  So a module's top-level statements resolve [Enum.X]
    against the Thrift schemas the module itself imports (directly or
    through its own imports), not against its importer's; a function
    it defines still runs, when called, in the caller's run.  What each
    run still does itself -- cycle detection on its own import stack,
    first-load order, the merge order of Thrift schemas -- is replayed
    from the entry, so an outcome is the same whichever configs share
    the table and in whatever order they run.

    {!add} and {!add_thrift} write the table, on one domain;
    {!run} only reads it, so any number of domains may run over a
    table once it holds every import their roots name. *)
module Modules : sig
  type t

  val create : loader:(string -> string option) -> t
  (** An empty table over [loader] ([None] = missing file). *)

  val add : t -> string -> unit
  (** Loads the [import] target and everything it reaches, unless
      already present.  Never raises on bad sources: a missing,
      unparseable, failing or cyclic module is recorded, and reported
      by each run that imports it. *)

  val add_thrift : t -> string -> unit
  (** Loads an [import_thrift] target, unless already present. *)

  val add_imports : t -> Ast.file -> unit
  (** {!add} or {!add_thrift} for each import statement of a file. *)

  val evaluations : t -> int
  (** Modules this table has evaluated: at most one per target. *)
end

val run : modules:Modules.t -> path:string -> source:string -> (outcome, error) result
(** [run ~modules ~path ~source] evaluates a root file.  Its
    [import]/[import_thrift] targets are read from [modules], which
    must hold every target the file names ({!Modules.add_imports});
    a missing file is a compile error.  Import cycles are detected and
    reported.  Reads [modules] only.

    Evaluation is bounded: each file (the root, and each module as it
    evaluates by itself) gets a constant budget of steps -- one per
    expression, plus the length of each list or string that [range],
    [join], [*] and [+] build and of each value [str] and [format]
    display, charged before it is built, and the elements of each
    compound value a comparison descends into -- and a constant depth
    of nested function calls.  A file that spends either fails with an
    [error] at the line where it ran out. *)

val to_thrift : value -> (Cm_thrift.Value.t, string) result
(** Converts a runtime value to a serializable Thrift value; fails on
    functions and null, and on a value of more nodes than a file's
    step budget (a value that shares structure can be exponentially
    larger than the evaluation that built it). *)

val of_thrift : Cm_thrift.Value.t -> value

val eval_expr_standalone :
  ?bindings:(string * value) list -> Ast.expr -> (value, error) result
(** Evaluates one expression with builtins plus [bindings] in scope —
    used by Sitevars checkers and Gatekeeper laser thresholds. *)
