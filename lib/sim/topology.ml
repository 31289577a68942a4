type node_id = int

type node = {
  id : node_id;
  region : int;
  cluster : int;
  mutable up : bool;
}

type t = {
  all : node array;
  regions : int;
  clusters_per_region : int;
  nodes_per_cluster : int;
  mutable listeners : (node_id -> unit) list;  (* in registration order *)
}

let create ~regions ~clusters_per_region ~nodes_per_cluster =
  assert (regions > 0 && clusters_per_region > 0 && nodes_per_cluster > 0);
  let total = regions * clusters_per_region * nodes_per_cluster in
  let all =
    Array.init total (fun id ->
        let per_region = clusters_per_region * nodes_per_cluster in
        let region = id / per_region in
        let cluster = id mod per_region / nodes_per_cluster in
        { id; region; cluster; up = true })
  in
  { all; regions; clusters_per_region; nodes_per_cluster; listeners = [] }

let node_count t = Array.length t.all
let region_count t = t.regions
let cluster_count t = t.regions * t.clusters_per_region
let nodes_per_cluster t = t.nodes_per_cluster

let cluster_base t ~region ~cluster =
  (region * t.clusters_per_region * t.nodes_per_cluster)
  + (cluster * t.nodes_per_cluster)

let node t id =
  if id < 0 || id >= Array.length t.all then invalid_arg "Topology.node: bad id";
  t.all.(id)

let nodes t = t.all

let nodes_in_cluster t ~region ~cluster =
  let per_region = t.clusters_per_region * t.nodes_per_cluster in
  let start = (region * per_region) + (cluster * t.nodes_per_cluster) in
  Array.sub t.all start t.nodes_per_cluster

let nodes_in_region t ~region =
  let per_region = t.clusters_per_region * t.nodes_per_cluster in
  Array.sub t.all (region * per_region) per_region

let cluster_of t id =
  let n = node t id in
  n.region, n.cluster

let same_cluster t a b =
  let na = node t a and nb = node t b in
  na.region = nb.region && na.cluster = nb.cluster

let same_region t a b = (node t a).region = (node t b).region
let on_change t f = t.listeners <- t.listeners @ [ f ]

let set_up t id up =
  (node t id).up <- up;
  List.iter (fun f -> f id) t.listeners

let crash t id = set_up t id false
let restart t id = set_up t id true
let is_up t id = (node t id).up

let random_up_node rng t =
  (* Rejection sampling with a bounded number of tries, then a scan. *)
  let total = Array.length t.all in
  let rec try_sample attempts =
    if attempts = 0 then None
    else
      let id = Rng.int rng total in
      if t.all.(id).up then Some id else try_sample (attempts - 1)
  in
  match try_sample 16 with
  | Some id -> Some id
  | None ->
      let found = ref None in
      Array.iter (fun n -> if n.up && !found = None then found := Some n.id) t.all;
      !found
