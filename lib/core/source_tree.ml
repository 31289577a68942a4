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

module Smap = Map.Make (String)
module Sset = Set.Make (String)

(* A handle on one snapshot: [files] maps each path to its contents and
   [validators] indexes its [Cvalidator] paths, so the per-compile
   validator lookups cost the number of validators, not the size of the
   tree.  Both are persistent, so [copy] shares them and a write rebinds
   only the written handle's fields. *)
type t = { mutable files : string Smap.t; mutable validators : Sset.t }

let create () = { files = Smap.empty; validators = Sset.empty }

let write t path content =
  t.files <- Smap.add path content t.files;
  if kind_of_path path = Cvalidator then t.validators <- Sset.add path t.validators

let of_alist entries =
  let t = create () in
  List.iter (fun (path, content) -> write t path content) entries;
  t

let copy t = { files = t.files; validators = t.validators }

let remove t path =
  t.files <- Smap.remove path t.files;
  t.validators <- Sset.remove path t.validators

let read t path = Smap.find_opt path t.files
let mem t path = Smap.mem path t.files

(* Keys in ascending order, those failing [keep] left out. *)
let keys ~keep t =
  Seq.fold_left
    (fun acc (path, _) -> if keep path then path :: acc else acc)
    [] (Smap.to_rev_seq t.files)

let paths t = keys ~keep:(fun _ -> true) t

let paths_of_kind t = function
  | Cvalidator -> Sset.elements t.validators
  | kind -> keys ~keep:(fun path -> kind_of_path path = kind) t

let count t = Smap.cardinal t.files

let loader t target =
  match read t target with
  | Some content -> Some content
  | None ->
      (* Allow repo-absolute form with a leading slash. *)
      if String.length target > 0 && target.[0] = '/' then
        read t (String.sub target 1 (String.length target - 1))
      else None

let snapshot t = Smap.bindings t.files
