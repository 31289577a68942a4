type params = {
  same_cluster_lat : float;
  same_region_lat : float;
  cross_region_lat : float;
  same_cluster_bw : float;
  same_region_bw : float;
  cross_region_bw : float;
  jitter : float;
  drop_prob : float;
}

let default_params =
  {
    same_cluster_lat = 0.0005;
    same_region_lat = 0.002;
    cross_region_lat = 0.075;
    same_cluster_bw = 1.0e9;
    same_region_bw = 4.0e8;
    cross_region_bw = 5.0e7;
    jitter = 0.1;
    drop_prob = 0.0;
  }

let lossy p ~drop_prob = { p with drop_prob }

type t = {
  params : params;
  engine : Engine.t;
  topology : Topology.t;
  rng : Rng.t;
  mutable bytes : int;
  mutable messages : int;
  mutable xregion_bytes : int;
  egress : int array; (* indexed by node id, pre-sized from the topology *)
  mutable tracer : Cm_trace.Tracer.t option;
}

let create ?(params = default_params) engine topology =
  { params; engine; topology; rng = Rng.split (Engine.rng engine);
    bytes = 0; messages = 0; xregion_bytes = 0;
    egress = Array.make (Topology.node_count topology) 0; tracer = None }

let engine t = t.engine
let topology t = t.topology
let set_tracer t tr = t.tracer <- Some tr
let tracer t = t.tracer

type locality = Same_cluster | Same_region | Cross_region

let locality t ~src ~dst =
  if Topology.same_cluster t.topology src dst then Same_cluster
  else if Topology.same_region t.topology src dst then Same_region
  else Cross_region

let transfer_time t ~src ~dst ~bytes =
  let lat, bw =
    match locality t ~src ~dst with
    | Same_cluster -> t.params.same_cluster_lat, t.params.same_cluster_bw
    | Same_region -> t.params.same_region_lat, t.params.same_region_bw
    | Cross_region -> t.params.cross_region_lat, t.params.cross_region_bw
  in
  let base = lat +. (float_of_int bytes /. bw) in
  let noise = 1.0 +. (t.params.jitter *. ((2.0 *. Rng.float t.rng 1.0) -. 1.0)) in
  base *. Float.max 0.01 noise

let account ?(copies = 1) t ~src ~dst ~bytes =
  let total = bytes * copies in
  t.bytes <- t.bytes + total;
  t.messages <- t.messages + copies;
  t.egress.(src) <- t.egress.(src) + total;
  if locality t ~src ~dst = Cross_region then
    t.xregion_bytes <- t.xregion_bytes + total

let deliver t ~dst callback () = if Topology.is_up t.topology dst then callback ()

(* Trace spans are recorded out of band: no RNG draws, no bytes, no
   scheduled events — an instrumented run is observationally identical
   to an uninstrumented one (checked by a property test). *)
let record_hops t ~hop ~src ~dst ~bytes ~delay ~dropped ctx ctxs =
  match t.tracer with
  | None -> ()
  | Some tr ->
      let t0 = Engine.now t.engine in
      let t1 = if dropped then t0 else t0 +. delay in
      let tags = if dropped then [ ("dropped", "true") ] else [] in
      let record c =
        if Cm_trace.Tracer.is_traced c then
          ignore (Cm_trace.Tracer.span tr c ~name:hop ~src ~dst ~bytes ~tags ~t0 ~t1 ())
      in
      (match ctx with Some c -> record c | None -> ());
      List.iter record ctxs

(* [copies] models a cohort: the same message sent to [copies]
   statistically identical receivers.  Bytes, message and egress
   counters scale by [copies]; drop and jitter are drawn once and one
   delivery event fires (the receivers share fate by construction —
   per-member divergence is what cohort expansion is for). *)
let send ?(hop = "net.send") ?ctx ?(ctxs = []) ?(copies = 1) t ~src ~dst ~bytes
    callback =
  account ~copies t ~src ~dst ~bytes;
  if not (Rng.bernoulli t.rng t.params.drop_prob) then begin
    let delay = transfer_time t ~src ~dst ~bytes in
    record_hops t ~hop ~src ~dst ~bytes ~delay ~dropped:false ctx ctxs;
    ignore (Engine.schedule t.engine ~delay (deliver t ~dst callback))
  end
  else record_hops t ~hop ~src ~dst ~bytes ~delay:0. ~dropped:true ctx ctxs

let send_reliable ?(hop = "net.send") ?ctx ?(ctxs = []) ?(copies = 1) t ~src
    ~dst ~bytes callback =
  account ~copies t ~src ~dst ~bytes;
  let delay = transfer_time t ~src ~dst ~bytes in
  record_hops t ~hop ~src ~dst ~bytes ~delay ~dropped:false ctx ctxs;
  ignore (Engine.schedule t.engine ~delay (deliver t ~dst callback))

let bytes_sent t = t.bytes
let messages_sent t = t.messages
let cross_region_bytes t = t.xregion_bytes

let egress_bytes t node = t.egress.(node)

let reset_counters t =
  t.bytes <- 0;
  t.messages <- 0;
  t.xregion_bytes <- 0;
  Array.fill t.egress 0 (Array.length t.egress) 0
