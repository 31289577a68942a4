(** One private value per domain, plus a fold over all of them.

    The accumulator shape that multicore hot paths share: each domain
    writes only its own value, with no lock or atomic per write, and a
    reader merges every value on demand.  A domain's value is made by
    [init] on its first {!get} and stays registered after the domain
    exits, so nothing it counted is lost.

    The merge reads plain fields that their owning domains may still
    be writing: approximate while they run, exact once they have been
    joined. *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** [create init]: [init] runs once per domain, on that domain. *)

val get : 'a t -> 'a
(** The calling domain's value; registers it on the first call. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold over every value ever registered, newest first. *)
