type item = Import of string | Import_thrift of string | Bound of string
type outline = Parsed of item list | Unparseable

(* What extraction keeps of one file: its outline and its edges (its
   imports normalized to tree paths), packed into one string, since
   every file of the tree holds one.  [""] is a file that is not a CSL
   source, ["U"] one that does not parse, and ["P<n>:"] followed by its
   items one that parses, where the first [n] bytes of the items hold
   every import (so reading the edges of a module that binds many names
   after its imports skips the names).  An item is a tag, the length of
   its string in decimal, [':'] and the string: ['b'] a bound name, ['i']
   an [import] and ['t'] an [import_thrift] whose edge is the target as
   written, ['j'] and ['u'] the same with the edge the target less its
   leading ['/']. *)
type t = {
  deps : (string, string) Hashtbl.t;           (* file -> packed outline *)
  rdeps : (string, string list ref) Hashtbl.t; (* file -> importers *)
}

let create () = { deps = Hashtbl.create 64; rdeps = Hashtbl.create 64 }

let copy t =
  let rdeps = Hashtbl.create (max 64 (Hashtbl.length t.rdeps)) in
  Hashtbl.iter (fun path importers -> Hashtbl.replace rdeps path (ref !importers)) t.rdeps;
  { deps = Hashtbl.copy t.deps; rdeps }

(* Unresolvable targets keep an edge under their literal spelling, so
   that creating the missing file later still invalidates importers.
   True when the edge is the target less its leading '/'. *)
let strips_slash tree target =
  (not (Source_tree.mem tree target))
  && String.length target > 0
  && target.[0] = '/'
  && Source_tree.mem tree (String.sub target 1 (String.length target - 1))

let pack tree (file : Cm_lang.Ast.file) =
  let items = Buffer.create 64 in
  let edges_end = ref 0 in
  let add tag name =
    Buffer.add_char items tag;
    Buffer.add_string items (string_of_int (String.length name));
    Buffer.add_char items ':';
    Buffer.add_string items name
  in
  let add_import tag target =
    add (if strips_slash tree target then Char.chr (Char.code tag + 1) else tag) target;
    edges_end := Buffer.length items
  in
  List.iter
    (fun (stmt, _) ->
      match stmt with
      | Cm_lang.Ast.Import target -> add_import 'i' target
      | Cm_lang.Ast.Import_thrift target -> add_import 't' target
      | Cm_lang.Ast.Bind (name, _) | Cm_lang.Ast.Def (name, _, _) -> add 'b' name
      | Cm_lang.Ast.Export _ -> ())
    file.Cm_lang.Ast.stmts;
  "P" ^ string_of_int !edges_end ^ ":" ^ Buffer.contents items

(* A decimal length and the index after its ':'. *)
let read_length packed i =
  let len = ref 0 and j = ref i in
  while packed.[!j] <> ':' do
    len := (10 * !len) + Char.code packed.[!j] - Char.code '0';
    incr j
  done;
  !len, !j + 1

(* Fold [f] over the items of a packed outline, or over its first
   [edges_end] bytes of items with [~edges:true]: [f acc tag start len],
   the item's string being [String.sub packed start len]. *)
let fold_packed ~edges f acc packed =
  if String.length packed = 0 || packed.[0] <> 'P' then acc
  else
    let edges_end, first = read_length packed 1 in
    let stop = if edges then first + edges_end else String.length packed in
    let rec go acc i =
      if i >= stop then acc
      else
        let len, start = read_length packed (i + 1) in
        go (f acc packed.[i] start len) (start + len)
    in
    go acc first

let edges packed =
  List.rev
    (fold_packed ~edges:true
       (fun acc tag start len ->
         match tag with
         | 'i' | 't' -> String.sub packed start len :: acc
         | 'j' | 'u' -> String.sub packed (start + 1) (len - 1) :: acc
         | _ -> acc)
       [] packed)

let extract tree path =
  match Source_tree.read tree path with
  | None -> ""
  | Some source -> (
      match Source_tree.kind_of_path path with
      | Source_tree.Thrift | Source_tree.Raw -> ""
      | Source_tree.Cconf | Source_tree.Cinc | Source_tree.Cvalidator -> (
          match Cm_lang.Parser.parse source with
          | Error _ -> "U"
          | Ok file -> pack tree file))

let unlink t path =
  match Hashtbl.find_opt t.deps path with
  | None -> ()
  | Some packed ->
      List.iter
        (fun dep ->
          match Hashtbl.find_opt t.rdeps dep with
          | Some importers -> importers := List.filter (fun p -> p <> path) !importers
          | None -> ())
        (edges packed);
      Hashtbl.remove t.deps path

let link t path packed =
  Hashtbl.replace t.deps path packed;
  List.iter
    (fun dep ->
      match Hashtbl.find_opt t.rdeps dep with
      | Some importers -> if not (List.mem path !importers) then importers := path :: !importers
      | None -> Hashtbl.replace t.rdeps dep (ref [ path ]))
    (edges packed)

let update_file t tree path =
  unlink t path;
  if Source_tree.mem tree path then link t path (extract tree path)

let scan t tree =
  Hashtbl.reset t.deps;
  Hashtbl.reset t.rdeps;
  List.iter (fun path -> link t path (extract tree path)) (Source_tree.paths tree)

let direct_deps t path =
  match Hashtbl.find_opt t.deps path with Some packed -> edges packed | None -> []

let outline t path =
  match Hashtbl.find_opt t.deps path with
  | None | Some "" -> None
  | Some "U" -> Some Unparseable
  | Some packed ->
      let item acc tag start len =
        let s = String.sub packed start len in
        match tag with
        | 'b' -> Bound s :: acc
        | 'i' | 'j' -> Import s :: acc
        | _ -> Import_thrift s :: acc
      in
      Some (Parsed (List.rev (fold_packed ~edges:false item [] packed)))

let dependents t path =
  match Hashtbl.find_opt t.rdeps path with
  | Some importers -> List.sort String.compare !importers
  | None -> []

let is_config path =
  match Source_tree.kind_of_path path with
  | Source_tree.Cconf | Source_tree.Raw -> true
  | Source_tree.Cinc | Source_tree.Thrift | Source_tree.Cvalidator -> false

let affected_configs t changed =
  let visited = Hashtbl.create 32 in
  let configs = Hashtbl.create 32 in
  let rec walk path =
    if not (Hashtbl.mem visited path) then begin
      Hashtbl.replace visited path ();
      if is_config path then Hashtbl.replace configs path ();
      List.iter walk (dependents t path)
    end
  in
  List.iter walk changed;
  (* Validators guard every config of their type, not just their static
     importers, and the type binding is only known post-compile — so a
     change reaching any validator conservatively dirties every compiled
     config. *)
  let validator_touched =
    Hashtbl.fold
      (fun path () acc ->
        acc || Source_tree.kind_of_path path = Source_tree.Cvalidator)
      visited false
  in
  if validator_touched then
    Hashtbl.iter
      (fun path _ ->
        if Source_tree.kind_of_path path = Source_tree.Cconf then
          Hashtbl.replace configs path ())
      t.deps;
  List.sort String.compare (Hashtbl.fold (fun path () acc -> path :: acc) configs [])

let transitive_deps t path =
  let visited = Hashtbl.create 32 in
  let rec walk current =
    List.iter
      (fun dep ->
        if not (Hashtbl.mem visited dep) then begin
          Hashtbl.replace visited dep ();
          walk dep
        end)
      (direct_deps t current)
  in
  walk path;
  List.sort String.compare (Hashtbl.fold (fun dep () acc -> dep :: acc) visited [])

(* Level-order scheduling for the parallel compile plane: partition a
   set of paths so that a path lands strictly after every member of
   the set it (transitively) imports.  Within a level no member
   depends on another, so a domain pool may compile a whole level
   concurrently; levels are emitted in dependency order and each level
   is sorted, making the schedule a pure function of the graph.  For
   the common case — configs that only share [.cinc]/[.thrift]
   modules, never import each other — this is a single level. *)
let levels t paths =
  let paths = List.sort_uniq String.compare paths in
  match paths with
  | [] -> []
  | _ ->
      let in_set = Hashtbl.create (List.length paths) in
      List.iter (fun p -> Hashtbl.replace in_set p ()) paths;
      let depth = Hashtbl.create (List.length paths) in
      let rec depth_of p =
        match Hashtbl.find_opt depth p with
        | Some d -> d
        | None ->
            (* Pre-mark so an import cycle (possible in unparseable or
               adversarial trees) terminates at depth 0 instead of
               recursing forever. *)
            Hashtbl.replace depth p 0;
            let d =
              List.fold_left
                (fun acc dep ->
                  if Hashtbl.mem in_set dep && not (String.equal dep p) then
                    max acc (1 + depth_of dep)
                  else acc)
                0 (transitive_deps t p)
            in
            Hashtbl.replace depth p d;
            d
      in
      let max_depth = List.fold_left (fun acc p -> max acc (depth_of p)) 0 paths in
      let buckets = Array.make (max_depth + 1) [] in
      (* [paths] is sorted ascending; consing reverses, so reverse once
         per bucket below to keep each level sorted. *)
      List.iter (fun p -> buckets.(depth_of p) <- p :: buckets.(depth_of p)) paths;
      Array.to_list (Array.map List.rev buckets)

let file_count t = Hashtbl.length t.deps
