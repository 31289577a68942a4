module Json = Cm_json.Value
module Engine = Cm_sim.Engine

type network = {
  latency_mean : float;
  latency_jitter : float;
  loss_prob : float;
  request_bytes : int;
  overhead_bytes : int;
}

let default_network =
  {
    latency_mean = 0.15;
    latency_jitter = 0.5;
    loss_prob = 0.02;
    request_bytes = 160;  (* schema hash + values hash + framing *)
    overhead_bytes = 80;
  }

type t = {
  net : network;
  engine : Engine.t;
  server : Server.t;
  duser : Cm_gatekeeper.User.t;
  cls : string;
  schema : Cm_thrift.Schema.t;
  poll_interval : float;
  dweight : int; (* cohort weight: devices this client stands for *)
  rng : Cm_sim.Rng.t;
  flash : (string, Json.t) Hashtbl.t;  (* survives restarts *)
  mutable values_hash : string option;
  mutable running : bool;
  mutable ncompleted : int;
  mutable nnotmod : int;
  mutable down : int;
  mutable up : int;
  session : int option;
}

let create ?(network = default_network) ?(weight = 1) engine server ~user ~cls
    ~schema ~poll_interval =
  assert (weight > 0);
  let t =
    {
      net = network;
      engine;
      server;
      duser = user;
      cls;
      schema;
      poll_interval;
      dweight = weight;
      rng = Cm_sim.Rng.split (Engine.rng engine);
      flash = Hashtbl.create 16;
      values_hash = None;
      running = false;
      ncompleted = 0;
      nnotmod = 0;
      down = 0;
      up = 0;
      session =
        (if Server.stateful server then Some (Server.new_session server) else None);
    }
  in
  t

let one_way t =
  let jitter = 1.0 +. (t.net.latency_jitter *. ((2.0 *. Cm_sim.Rng.float t.rng 1.0) -. 1.0)) in
  Float.max 0.005 (t.net.latency_mean *. jitter)

let apply_payload t fields =
  Hashtbl.reset t.flash;
  List.iter (fun (field, v) -> Hashtbl.replace t.flash field v) fields;
  t.values_hash <- Some (Server.payload_hash fields)

let sync_once t =
  (* Stateful servers remember our hashes: the request carries only a
     session id instead of two 32-byte hex hashes (footnote 2). *)
  let request_bytes =
    match t.session with
    | Some _ -> max 16 (t.net.request_bytes - 112)
    | None -> t.net.request_bytes
  in
  t.up <- t.up + (t.dweight * request_bytes);
  (* Each represented device loses its round trip independently; for
     weight 1 this is the single Bernoulli draw it always was. *)
  let successes =
    if t.dweight = 1 then
      if Cm_sim.Rng.bernoulli t.rng t.net.loss_prob then 0 else 1
    else Cm_sim.Rng.binomial t.rng ~n:t.dweight ~p:(1.0 -. t.net.loss_prob)
  in
  if successes > 0 then begin
    let rtt = one_way t +. one_way t in
    ignore
      (Engine.schedule t.engine ~delay:rtt (fun () ->
           let response =
             Server.sync t.server ~session:t.session
               ~user:t.duser ~cls:t.cls ~client_schema:t.schema
               ~values_hash:(match t.session with Some _ -> None | None -> t.values_hash)
           in
           t.ncompleted <- t.ncompleted + successes;
           match response with
           | Server.Not_modified ->
               t.nnotmod <- t.nnotmod + successes;
               t.down <- t.down + (successes * t.net.overhead_bytes)
           | Server.Payload fields ->
               t.down <-
                 t.down
                 + (successes
                   * (t.net.overhead_bytes + Json.size_bytes (Json.Assoc fields)));
               apply_payload t fields))
  end

let rec poll_loop t =
  if t.running then
    ignore
      (Engine.schedule t.engine ~delay:t.poll_interval (fun () ->
           if t.running then begin
             sync_once t;
             poll_loop t
           end))

let start t =
  if not t.running then begin
    t.running <- true;
    ignore
      (Server.register_push t.server (fun ~cls ->
           if cls = t.cls && t.running then sync_once t));
    sync_once t;
    poll_loop t
  end

let stop t = t.running <- false

let get t field = Hashtbl.find_opt t.flash field
let has_value t field = Hashtbl.mem t.flash field

let get_bool t field =
  match get t field with Some (Json.Bool b) -> b | Some _ | None -> false

let get_int t field =
  match get t field with Some (Json.Int n) -> n | Some _ | None -> 0

let get_float t field =
  match get t field with
  | Some v -> ( match Json.to_float v with Some f -> f | None -> 0.0)
  | None -> 0.0

let get_string t field =
  match get t field with Some (Json.String s) -> s | Some _ | None -> ""

let user t = t.duser
let weight t = t.dweight
let syncs_completed t = t.ncompleted
let not_modified t = t.nnotmod
let bytes_down t = t.down
let bytes_up t = t.up
