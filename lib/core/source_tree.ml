type kind = Cconf | Cinc | Thrift | Cvalidator | Raw

let kind_of_path path =
  let ends_with suffix =
    let n = String.length path and m = String.length suffix in
    n >= m && String.sub path (n - m) m = suffix
  in
  if ends_with ".cconf" then Cconf
  else if ends_with ".cinc" then Cinc
  else if ends_with "cvalidator" then Cvalidator (* "<Type>.thrift-cvalidator" *)
  else if ends_with ".thrift" then Thrift
  else Raw

module Sset = Set.Make (String)

(* [validators] indexes the [Cvalidator] paths of [files], kept up to
   date by every mutator, so the per-compile validator lookups cost
   the number of validators, not the size of the tree.  A persistent
   set: [copy] shares it, and a write to the copy rebinds only the
   copy's field. *)
type t = { files : (string, string) Hashtbl.t; mutable validators : Sset.t }

let create () = { files = Hashtbl.create 64; validators = Sset.empty }

let write t path content =
  Hashtbl.replace t.files path content;
  if kind_of_path path = Cvalidator then t.validators <- Sset.add path t.validators

let of_alist entries =
  let t = create () in
  List.iter (fun (path, content) -> write t path content) entries;
  t

let copy t = { files = Hashtbl.copy t.files; validators = t.validators }

let remove t path =
  Hashtbl.remove t.files path;
  t.validators <- Sset.remove path t.validators

let read t path = Hashtbl.find_opt t.files path
let mem t path = Hashtbl.mem t.files path

let paths t =
  List.sort String.compare (Hashtbl.fold (fun path _ acc -> path :: acc) t.files [])

let paths_of_kind t = function
  | Cvalidator -> Sset.elements t.validators
  | kind -> List.filter (fun path -> kind_of_path path = kind) (paths t)

let count t = Hashtbl.length t.files

let loader t target =
  match read t target with
  | Some content -> Some content
  | None ->
      (* Allow repo-absolute form with a leading slash. *)
      if String.length target > 0 && target.[0] = '/' then
        read t (String.sub target 1 (String.length target - 1))
      else None

let snapshot t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun path content acc -> (path, content) :: acc) t.files [])
