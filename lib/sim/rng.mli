(** Deterministic pseudo-random numbers (splitmix64).

    Every experiment in the repository is reproducible from a seed, so
    no code uses [Random] from the stdlib; simulation components draw
    from an explicit generator, and independent components can be given
    independent streams via {!split}. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh generator. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be > 0. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is true with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp with the given mean. *)

val lognormal : t -> mu:float -> sigma:float -> float

val normal : t -> mu:float -> sigma:float -> float
(** Box-Muller. *)

val binomial : t -> n:int -> p:float -> int
(** Number of successes among [n] independent trials of probability
    [p].  Exact (n Bernoulli draws) for [n <= 64]; clamped normal
    approximation above — one draw per cohort instead of one per
    member. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates. *)

val hash_to_unit : string -> float
(** [hash_to_unit key] deterministically maps a string to [\[0,1)].
    This is the paper's [rand(user_id)]: Gatekeeper sampling must be
    sticky per user, independent of any generator state. *)

module Zipf : sig
  type dist

  val make : n:int -> s:float -> dist
  (** Zipf distribution over ranks [1..n] with exponent [s]
      (probability of rank k proportional to 1/k^s). *)

  val draw : t -> dist -> int
  (** Draw a rank in [\[1, n\]] by inverse-CDF binary search. *)
end
