type item = Import of string | Import_thrift of string | Bound of string
type outline = Parsed of item list | Unparseable

module Smap = Map.Make (String)
module Sset = Set.Make (String)

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
   leading ['/'].

   [t] is a handle on persistent maps: [copy] shares them, and an
   update rebinds only the updated handle's fields. *)
type t = {
  mutable deps : string Smap.t;   (* file -> packed outline *)
  mutable rdeps : Sset.t Smap.t;  (* file -> importers *)
}

let copy t = { deps = t.deps; rdeps = t.rdeps }

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
  let add tag name =
    Buffer.add_char items tag;
    Buffer.add_string items (string_of_int (String.length name));
    Buffer.add_char items ':';
    Buffer.add_string items name
  in
  let add_import tag target =
    add (if strips_slash tree target then Char.chr (Char.code tag + 1) else tag) target;
    Buffer.length items
  in
  let edges_end =
    List.fold_left
      (fun edges_end (stmt, _) ->
        match stmt with
        | Cm_lang.Ast.Import target -> add_import 'i' target
        | Cm_lang.Ast.Import_thrift target -> add_import 't' target
        | Cm_lang.Ast.Bind (name, _) | Cm_lang.Ast.Def (name, _, _) ->
            add 'b' name;
            edges_end
        | Cm_lang.Ast.Export _ -> edges_end)
      0 file.Cm_lang.Ast.stmts
  in
  "P" ^ string_of_int edges_end ^ ":" ^ Buffer.contents items

(* The index of the first [':'] at or after [i]. *)
let rec colon packed i = if packed.[i] = ':' then i else colon packed (i + 1)

(* The decimal number in bytes [i, j). *)
let rec decimal packed i j n =
  if i = j then n else decimal packed (i + 1) j ((10 * n) + Char.code packed.[i] - Char.code '0')

(* Fold [f] over the items of a packed outline, or over its first
   [edges_end] bytes of items with [~edges:true]: [f acc tag start len],
   the item's string being [String.sub packed start len]. *)
let fold_packed ~edges f acc packed =
  if String.length packed = 0 || packed.[0] <> 'P' then acc
  else
    let header = colon packed 1 in
    let first = header + 1 in
    let stop = if edges then first + decimal packed 1 header 0 else String.length packed in
    let rec go acc i =
      if i >= stop then acc
      else
        let c = colon packed (i + 1) in
        let len = decimal packed (i + 1) c 0 in
        go (f acc packed.[i] (c + 1) len) (c + 1 + len)
    in
    go acc first

(* The edge of an import item: its target, less the leading ['/'] for
   tags ['j'] and ['u']. *)
let edge packed tag start len =
  match tag with
  | 'j' | 'u' -> String.sub packed (start + 1) (len - 1)
  | _ -> String.sub packed start len

let is_import_tag = function 'i' | 't' | 'j' | 'u' -> true | _ -> false

let edges packed =
  List.rev
    (fold_packed ~edges:true
       (fun acc tag start len ->
         if is_import_tag tag then edge packed tag start len :: acc else acc)
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
  match Smap.find_opt path t.deps with
  | None -> ()
  | Some packed ->
      t.rdeps <-
        List.fold_left
          (fun rdeps dep -> Smap.update dep (Option.map (Sset.remove path)) rdeps)
          t.rdeps (edges packed);
      t.deps <- Smap.remove path t.deps

let link t path packed =
  t.deps <- Smap.add path packed t.deps;
  t.rdeps <-
    List.fold_left
      (fun rdeps dep ->
        Smap.update dep
          (fun importers -> Some (Sset.add path (Option.value importers ~default:Sset.empty)))
          rdeps)
      t.rdeps (edges packed)

let importers t path = Option.value (Smap.find_opt path t.rdeps) ~default:Sset.empty

let relink t tree path =
  unlink t path;
  if Source_tree.mem tree path then link t path (extract tree path)

(* An absolute import of [path] has its edge under "/path" while [path]
   is missing and under [path] once it exists ([strips_slash]), so when
   [path] appears or goes its importers' edges are re-extracted too. *)
let update_file t tree path =
  let existed = Smap.mem path t.deps in
  relink t tree path;
  if existed <> Source_tree.mem tree path then
    Sset.iter (relink t tree)
      (Sset.remove path (Sset.union (importers t path) (importers t ("/" ^ path))))

let of_tree tree =
  let t = { deps = Smap.empty; rdeps = Smap.empty } in
  List.iter (fun path -> link t path (extract tree path)) (Source_tree.paths tree);
  t

let direct_deps t path =
  match Smap.find_opt path t.deps with Some packed -> edges packed | None -> []

let outline t path =
  match Smap.find_opt path t.deps with
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

let imports t path =
  match Smap.find_opt path t.deps with
  | None -> []
  | Some packed ->
      List.rev
        (fold_packed ~edges:true
           (fun acc tag start len ->
             match tag with
             | 'i' | 'j' -> Import (String.sub packed start len) :: acc
             | 't' | 'u' -> Import_thrift (String.sub packed start len) :: acc
             | _ -> acc)
           [] packed)

let dependents t path = Sset.elements (importers t path)

let is_config path =
  match Source_tree.kind_of_path path with
  | Source_tree.Cconf | Source_tree.Raw -> true
  | Source_tree.Cinc | Source_tree.Thrift | Source_tree.Cvalidator -> false

let affected_configs t changed =
  let rec walk visited path =
    if Sset.mem path visited then visited
    else Sset.fold (fun p visited -> walk visited p) (importers t path) (Sset.add path visited)
  in
  let visited = List.fold_left walk Sset.empty changed in
  let configs = Sset.filter is_config visited in
  (* Validators guard every config of their type, not just their static
     importers, and the type binding is only known post-compile — so a
     change reaching any validator conservatively dirties every compiled
     config. *)
  let validator_touched =
    Sset.exists (fun path -> Source_tree.kind_of_path path = Source_tree.Cvalidator) visited
  in
  Sset.elements
    (if validator_touched then
       Smap.fold
         (fun path _ configs ->
           if Source_tree.kind_of_path path = Source_tree.Cconf then Sset.add path configs
           else configs)
         t.deps configs
     else configs)

(* The walk reads each file's edges straight from its packed outline,
   building no edge list. *)
let transitive_deps t path =
  let rec walk visited current =
    match Smap.find current t.deps with
    | exception Not_found -> visited
    | packed ->
        fold_packed ~edges:true
          (fun visited tag start len ->
            if not (is_import_tag tag) then visited
            else
              let dep = edge packed tag start len in
              if Sset.mem dep visited then visited else walk (Sset.add dep visited) dep)
          visited packed
  in
  Sset.elements (walk Sset.empty path)
