(** Fleet model: regions contain clusters contain server nodes.

    Matches the paper's deployment shape (multiple geographic regions,
    each data center made of clusters of thousands of servers).  Nodes
    carry an up/down flag used for failure injection; components must
    tolerate any node being down. *)

type node_id = int

type node = private {
  id : node_id;
  region : int;
  cluster : int;
  mutable up : bool;
}

type t

val create : regions:int -> clusters_per_region:int -> nodes_per_cluster:int -> t

val node_count : t -> int
val region_count : t -> int
val cluster_count : t -> int
(** Total clusters across all regions. *)

val nodes_per_cluster : t -> int

val cluster_base : t -> region:int -> cluster:int -> node_id
(** First node id of a cluster; ids within a cluster are contiguous,
    so cohorts can address members as [base + offset] without
    allocating node arrays. *)

val node : t -> node_id -> node
(** @raise Invalid_argument on an out-of-range id. *)

val nodes : t -> node array
(** All nodes; do not mutate the array itself. *)

val nodes_in_cluster : t -> region:int -> cluster:int -> node array
val nodes_in_region : t -> region:int -> node array

val cluster_of : t -> node_id -> int * int
(** [(region, cluster)] of a node. *)

val same_cluster : t -> node_id -> node_id -> bool
val same_region : t -> node_id -> node_id -> bool

val crash : t -> node_id -> unit
val restart : t -> node_id -> unit
val is_up : t -> node_id -> bool

val on_change : t -> (node_id -> unit) -> unit
(** Registers a listener run, in registration order, after every
    {!crash} and {!restart} (even a no-op one) of any node. *)

val random_up_node : Rng.t -> t -> node_id option
