(** Gatekeeper projects (§4, Figures 4-5): the gating logic of one
    product feature.

    A project is a list of rules evaluated top to bottom.  Each rule
    is a conjunction of restraints plus a pass probability; the first
    rule whose restraints all hold "casts the die": the user passes
    the gate with that rule's probability.  No rule matching means
    fail.  This is disjunctive normal form with user sampling.

    Sampling is {b sticky}: rand(user_id) is a deterministic hash of
    (project salt, rule salt, user id), so expanding a rollout from
    1% to 10% keeps the original 1% of users enabled. *)

type rule = {
  restraints : Restraint.t list;  (** conjunction *)
  pass_prob : float;              (** in [0, 1] *)
  salt : string;                  (** sampling namespace for this rule *)
}

type t = {
  project_name : string;
  rules : rule list;
  killed : bool;  (** kill switch: overrides everything to false *)
}

val make : name:string -> rule list -> t
val rule : ?salt:string -> ?pass_prob:float -> Restraint.t list -> rule
(** Default pass_prob 1.0, default salt "". *)

val kill : t -> t
val revive : t -> t

val check : Restraint.ctx -> t -> User.t -> bool
(** The paper's [gk_check(project, user_id)], reference (unoptimized)
    evaluation order. *)

val sticky_pass : t -> rule_index:int -> rule -> User.t -> bool
(** The sampling decision alone (exposed for property tests). *)

(** {1 Serialization — projects are stored as Configerator configs} *)

val to_json : t -> Cm_json.Value.t
val of_json : Cm_json.Value.t -> (t, string) result
val to_string : t -> string
val of_string : string -> (t, string) result

(** {1 Rollout helpers} *)

val employee_rollout : name:string -> prob:float -> t
(** The canonical launch shape: employees at [prob], everyone else
    off. *)

val staged : name:string -> employee_prob:float -> world_prob:float -> t
(** Employees at one probability, the rest of the world at another. *)
