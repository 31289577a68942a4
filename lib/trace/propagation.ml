type hold = { mutable hzxid : int; mutable hdigest : string option }

type t = {
  now : unit -> float;
  (* (path, kind, node) -> what that target currently holds *)
  targets : (string * string * int, hold) Hashtbl.t;
  (* (path, zxid) -> digest, commit time *)
  commits : (string * int, string * float) Hashtbl.t;
  (* path -> latest committed zxid *)
  latest : (string, int) Hashtbl.t;
  mutable rev_lat : float list;
  mutable nlat : int;
}

let create ~now () =
  {
    now;
    targets = Hashtbl.create 64;
    commits = Hashtbl.create 64;
    latest = Hashtbl.create 16;
    rev_lat = [];
    nlat = 0;
  }

let register_target t ?(kind = "proxy") ~path ~node () =
  let key = (path, kind, node) in
  if not (Hashtbl.mem t.targets key) then
    Hashtbl.replace t.targets key { hzxid = 0; hdigest = None }

let note_commit t ~path ~zxid ~digest =
  Hashtbl.replace t.commits (path, zxid) (digest, t.now ());
  match Hashtbl.find_opt t.latest path with
  | Some z when z >= zxid -> ()
  | _ -> Hashtbl.replace t.latest path zxid

let record_arrival t ?(kind = "proxy") ?digest ~path ~node ~zxid () =
  register_target t ~kind ~path ~node ();
  let hold = Hashtbl.find t.targets (path, kind, node) in
  if zxid > hold.hzxid then begin
    hold.hzxid <- zxid;
    hold.hdigest <- digest;
    match Hashtbl.find_opt t.commits (path, zxid) with
    | Some (_, committed) ->
        t.rev_lat <- (t.now () -. committed) :: t.rev_lat;
        t.nlat <- t.nlat + 1
    | None -> ()
  end

let fold_targets t ?kind ~path f init =
  Hashtbl.fold
    (fun (p, k, node) hold acc ->
      if p = path && (match kind with None -> true | Some k' -> k = k') then
        f acc node hold
      else acc)
    t.targets init

let coverage t ?kind ~path ~zxid () =
  let total, got =
    fold_targets t ?kind ~path
      (fun (total, got) _ hold ->
        (total + 1, if hold.hzxid >= zxid then got + 1 else got))
      (0, 0)
  in
  if total = 0 then 1.0 else float_of_int got /. float_of_int total

let coverage_digest t ?kind ~path ~digest () =
  let total, got =
    fold_targets t ?kind ~path
      (fun (total, got) _ hold ->
        (total + 1, if hold.hdigest = Some digest then got + 1 else got))
      (0, 0)
  in
  if total = 0 then 1.0 else float_of_int got /. float_of_int total

let latest_zxid t ~path = Hashtbl.find_opt t.latest path

let min_coverage_latest t ?kind () =
  Hashtbl.fold
    (fun path zxid acc -> Float.min acc (coverage t ?kind ~path ~zxid ()))
    t.latest 1.0

let target_count t ?kind ~path () =
  fold_targets t ?kind ~path (fun n _ _ -> n + 1) 0

let holders t ?kind ~path () =
  fold_targets t ?kind ~path (fun acc node hold -> (node, hold.hzxid) :: acc) []
  |> List.sort compare

let paths t =
  let set = Hashtbl.create 16 in
  Hashtbl.iter (fun (p, _, _) _ -> Hashtbl.replace set p ()) t.targets;
  Hashtbl.iter (fun p _ -> Hashtbl.replace set p ()) t.latest;
  Hashtbl.fold (fun p () acc -> p :: acc) set [] |> List.sort compare

let latency_count t = t.nlat

let latency_percentile t p =
  let arr = Array.of_list t.rev_lat in
  Array.sort compare arr;
  Tracer.percentile arr p
