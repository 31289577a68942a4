module Json = Cm_json.Value
module Engine = Cm_sim.Engine

type response =
  | Not_modified
  | Payload of (string * Json.t) list

type t = {
  engine : Engine.t;
  mutable trans : Translation.t;
  resolver : Translation.resolver;
  rng : Cm_sim.Rng.t;
  mutable push_handlers : (int * (cls:string -> unit)) list;
  mutable next_handler : int;
  is_stateful : bool;
  (* (session, class) -> hash of the last payload sent *)
  session_hashes : (int * string, string) Hashtbl.t;
  mutable next_session : int;
}

let create ?(stateful = false) engine ~translation ~resolver =
  {
    engine;
    trans = translation;
    resolver;
    rng = Cm_sim.Rng.split (Engine.rng engine);
    push_handlers = [];
    next_handler = 0;
    is_stateful = stateful;
    session_hashes = Hashtbl.create 64;
    next_session = 0;
  }

let stateful t = t.is_stateful

let new_session t =
  let id = t.next_session in
  t.next_session <- id + 1;
  id

let set_translation t translation = t.trans <- translation
let translation t = t.trans

let payload_hash fields =
  Json.hash (Json.Assoc fields)

let default_json field =
  match field.Cm_thrift.Schema.fdefault with
  | Some v -> Some (Cm_thrift.Codec.encode v)
  | None -> (
      (* Zero values per base type so getters always have something. *)
      match field.Cm_thrift.Schema.fty with
      | Cm_thrift.Schema.Bool -> Some (Json.Bool false)
      | Cm_thrift.Schema.I32 | Cm_thrift.Schema.I64 -> Some (Json.Int 0)
      | Cm_thrift.Schema.Double -> Some (Json.Float 0.0)
      | Cm_thrift.Schema.Str -> Some (Json.String "")
      | Cm_thrift.Schema.List _ -> Some (Json.List [])
      | Cm_thrift.Schema.Map _ -> Some (Json.Assoc [])
      | Cm_thrift.Schema.Named _ -> None)

let sync t ~session ~user ~cls ~client_schema ~values_hash =
  let values_hash =
    match session with
    | Some id when t.is_stateful -> Hashtbl.find_opt t.session_hashes (id, cls)
    | Some _ | None -> values_hash
  in
  match Cm_thrift.Schema.find_struct client_schema cls with
  | None -> Payload []
  | Some strct ->
      let materialized = Translation.materialize t.trans t.resolver ~cls user in
      (* Trim to the client's schema version and fill defaults. *)
      let fields =
        List.filter_map
          (fun field ->
            let fname = field.Cm_thrift.Schema.fname in
            match List.assoc_opt fname materialized with
            | Some v -> Some (fname, v)
            | None -> (
                match default_json field with
                | Some v -> Some (fname, v)
                | None -> None))
          strct.Cm_thrift.Schema.fields
      in
      let hash = payload_hash fields in
      (match session with
      | Some id when t.is_stateful -> Hashtbl.replace t.session_hashes (id, cls) hash
      | Some _ | None -> ());
      if values_hash = Some hash then Not_modified else Payload fields


let register_push t handler =
  let id = t.next_handler in
  t.next_handler <- id + 1;
  t.push_handlers <- (id, handler) :: t.push_handlers;
  id

let emergency_push ?tracer ?(ctx = Cm_trace.Tracer.none) t ~cls ~loss_prob ~latency =
  (* RNG draws are identical with or without tracing: one bernoulli
     per handler, one latency sample per delivered push. *)
  let now () = Engine.now t.engine in
  List.iteri
    (fun i (_, handler) ->
      if not (Cm_sim.Rng.bernoulli t.rng loss_prob) then begin
        let delay = latency () in
        (match tracer with
        | Some tr ->
            ignore
              (Cm_trace.Tracer.span tr ctx ~name:"mobile.push" ~dst:i
                 ~tags:[ ("class", cls) ]
                 ~t0:(now ()) ~t1:(now () +. delay) ())
        | None -> ());
        ignore (Engine.schedule t.engine ~delay (fun () -> handler ~cls))
      end
      else
        match tracer with
        | Some tr ->
            ignore
              (Cm_trace.Tracer.span tr ctx ~name:"mobile.push" ~dst:i
                 ~tags:[ ("class", cls); ("dropped", "true") ]
                 ~t0:(now ()) ~t1:(now ()) ())
        | None -> ())
    t.push_handlers
