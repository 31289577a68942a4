(** A small domain pool: deterministic fan-out of independent work
    items across OCaml 5 domains.

    Items are claimed with one atomic fetch-and-add and every result
    lands in its item's output slot, so output order equals input
    order regardless of completion order — the property that keeps
    the landing path's output bit-identical at any domain count.  A
    [d]-domain pool spawns up to [d - 1] domains per call; the caller's
    domain works as worker 0 alongside them.  A 1-domain pool (or a
    1-item call) runs inline on the caller's domain with no spawns,
    which is how the landing path runs sequentially.

    Workers get no private state and nothing is merged: callers hand
    them read-only inputs and make their writes on their own domain
    after the join. *)

type t

val create : ?domains:int -> unit -> t
(** [domains] defaults to 1 and is clamped to
    [1 .. Domain.recommended_domain_count ()]: a pool never runs more
    domains than the host has cores. *)

val domains : t -> int
(** The clamped domain count. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs 0] resolves
    to at the CLI. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array t f items]: apply [f] to every item on the pool.
    Results are in input order.  If any [f] raises, remaining items
    are abandoned, all domains are joined, and the first exception
    observed is re-raised on the caller's domain. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
