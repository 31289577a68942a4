(** Code review for config changes (Phabricator's role in Figure 3).

    A config change is treated the same as a code change: it is
    submitted as a diff, integration-test results are posted to it,
    and it needs the approval of a reviewer other than its author
    before it may proceed to canary and landing. *)

type diff_id = int

type state =
  | Pending
  | Accepted of string   (** reviewer *)
  | Rejected of string * string  (** reviewer, reason *)

type diff = {
  id : diff_id;
  author : string;
  title : string;
  base : Cm_vcs.Store.oid option;
  changes : Cm_vcs.Repo.change list;
  mutable state : state;
  mutable test_results : Defense.verdict list;
      (** the unified defense-stage record — verdicts posted by
          Sandcastle, the verify stage, and ad-hoc tooling, each
          carrying its stage, rule, offending path, and (on failure)
          any suggested repair *)
}

type t

val create : unit -> t

val submit :
  t ->
  author:string ->
  title:string ->
  base:Cm_vcs.Store.oid option ->
  Cm_vcs.Repo.change list ->
  diff_id

val get : t -> diff_id -> diff option

val post_verdict : t -> diff_id -> Defense.verdict -> unit
(** Append a defense-stage verdict to the diff's test record. *)

val post_verdicts : t -> diff_id -> Defense.verdict list -> unit
(** Append verdicts, in order, to the diff's test record: one copy of
    the record so far per batch, where posting them one by one copies
    it once per verdict. *)

val post_test_result : t -> diff_id -> name:string -> passed:bool -> detail:string -> unit
(** Convenience shim over {!post_verdict}: wraps an ad-hoc result into
    a stage-["review"] verdict. *)

val approve : t -> diff_id -> reviewer:string -> (unit, string) result
(** Fails when the reviewer is the author (self-review is forbidden)
    or the diff is not pending. *)

val reject : t -> diff_id -> reviewer:string -> reason:string -> (unit, string) result

val pending : t -> diff list
val count : t -> int
