type backend = Flat | Merkle

let backend_name = function Flat -> "flat" | Merkle -> "merkle"

type t = {
  rname : string;
  rstore : Store.t;
  rbackend : backend;
  mutable rhead : Store.oid option;
  mutable ncommits : int;
  (* Merkle-backend indexes (unused by the flat backend, which keeps
     its O(repo) walks on purpose — see the .mli). *)
  head_index : (string, Store.oid) Hashtbl.t;  (* path -> blob oid at head *)
  touches : (string, Store.oid list ref) Hashtbl.t;  (* path -> commits, newest first *)
  mutable rdropped : int;  (* generations dropped as incomplete on recovery *)
}

type change = string * string option

let create ?(backend = Merkle) ?(store = Store.Memory) ?(name = "configerator") () =
  {
    rname = name;
    rstore = Store.create ~backend:store ();
    rbackend = backend;
    rhead = None;
    ncommits = 0;
    head_index = Hashtbl.create 256;
    touches = Hashtbl.create 256;
    rdropped = 0;
  }

let name t = t.rname
let store t = t.rstore
let backend t = t.rbackend
let head t = t.rhead

let commit_info t oid =
  match Store.get t.rstore oid with
  | Some (Store.Commit c) -> Some c
  | Some (Store.Blob _ | Store.Tree _) | None -> None

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ===================================================================
   Flat backend: one wide tree mapping full paths to blob oids.  Every
   commit rebuilds and re-hashes the whole listing, and history scans
   re-diff full trees — deliberately, so the Figure-13 degradation
   curve (commit cost grows with repository size) stays reproducible.
   =================================================================== *)

let tree_of_commit t oid =
  match Store.get_exn t.rstore oid with
  | Store.Commit c -> (
      match Store.get_exn t.rstore c.Store.tree with
      | Store.Tree entries -> entries
      | Store.Blob _ | Store.Commit _ -> invalid_arg "corrupt commit: tree id is not a tree")
  | Store.Blob _ | Store.Tree _ -> invalid_arg "not a commit"

let head_tree t = match t.rhead with None -> [] | Some oid -> tree_of_commit t oid

(* Merge sorted tree entries with sorted changes; both lists are kept
   sorted by path so this is a linear merge — but the full O(n) walk
   per commit is deliberate: it is what makes throughput fall as the
   repository grows (Figure 13). *)
let apply_changes t entries changes =
  let changes =
    List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) changes
  in
  let rec merge entries changes acc =
    match entries, changes with
    | rest, [] -> List.rev_append acc rest
    | [], (path, content) :: more -> (
        match content with
        | Some data ->
            let oid = Store.put t.rstore (Store.Blob data) in
            merge [] more ((path, oid) :: acc)
        | None -> invalid_arg ("delete of missing path " ^ path))
    | (epath, eoid) :: erest, (cpath, content) :: crest ->
        let cmp = String.compare epath cpath in
        if cmp < 0 then merge erest changes ((epath, eoid) :: acc)
        else if cmp > 0 then
          match content with
          | Some data ->
              let oid = Store.put t.rstore (Store.Blob data) in
              merge entries crest ((cpath, oid) :: acc)
          | None -> invalid_arg ("delete of missing path " ^ cpath)
        else
          (* Same path: change replaces or deletes the entry. *)
          (match content with
          | Some data ->
              let oid = Store.put t.rstore (Store.Blob data) in
              merge erest crest ((cpath, oid) :: acc)
          | None -> merge erest crest acc)
  in
  merge entries changes []

(* Flat commits carry generation = 0 and changed = [] (untracked
   sentinels): recording them would let history queries shortcut the
   very walks whose cost this backend exists to reproduce. *)
let commit_flat t ~author ~message ~timestamp changes =
  let entries = apply_changes t (head_tree t) changes in
  let tree = Store.put t.rstore (Store.Tree entries) in
  let parents = match t.rhead with None -> [] | Some oid -> [ oid ] in
  Store.put t.rstore
    (Store.Commit
       { Store.tree; parents; author; message; timestamp; generation = 0; changed = [] })

let resolve_tree t = function
  | Some rev -> tree_of_commit t rev
  | None -> head_tree t

let diff_trees old_entries new_entries =
  (* Both sorted by path: linear scan for changed/added/removed. *)
  let rec scan old_entries new_entries acc =
    match old_entries, new_entries with
    | [], rest -> List.rev_append acc (List.map fst rest)
    | rest, [] -> List.rev_append acc (List.map fst rest)
    | (opath, ooid) :: orest, (npath, noid) :: nrest ->
        let cmp = String.compare opath npath in
        if cmp < 0 then scan orest new_entries (opath :: acc)
        else if cmp > 0 then scan old_entries nrest (npath :: acc)
        else if ooid = noid then scan orest nrest acc
        else scan orest nrest (opath :: acc)
  in
  scan old_entries new_entries []

let changed_paths_of_commit_flat t oid =
  match commit_info t oid with
  | None -> []
  | Some c ->
      let current = tree_of_commit t oid in
      let parent =
        match c.Store.parents with [] -> [] | p :: _ -> tree_of_commit t p
      in
      diff_trees parent current

(* ===================================================================
   Merkle backend: directory-sharded trees.  A tree node's entries are
   path components; an entry's oid names a Blob (file) or another Tree
   (subdirectory).  The same component may appear once as each, since
   the flat namespace allows "a" and "a/b" to coexist.  A commit
   re-hashes only the dirty spine (changed leaf + ancestor nodes);
   untouched subtrees are shared by oid, so byte cost is O(changed).
   =================================================================== *)

type kind = File | Dir

let kind_rank = function File -> 0 | Dir -> 1

let compare_entry (n1, k1, _) (n2, k2, _) =
  let c = String.compare n1 n2 in
  if c <> 0 then c else Int.compare (kind_rank k1) (kind_rank k2)

let node_entries store oid =
  match Store.get_exn store oid with
  | Store.Tree entries -> entries
  | Store.Blob _ | Store.Commit _ -> invalid_arg "corrupt merkle tree: oid is not a tree"

let entry_kind store oid =
  match Store.get_exn store oid with
  | Store.Blob _ -> File
  | Store.Tree _ -> Dir
  | Store.Commit _ -> invalid_arg "corrupt merkle tree: commit inside a tree"

let annotate store entries =
  List.map (fun (name, oid) -> name, entry_kind store oid, oid) entries

let root_of_commit t oid =
  match Store.get_exn t.rstore oid with
  | Store.Commit c -> c.Store.tree
  | Store.Blob _ | Store.Tree _ -> invalid_arg "not a commit"

type action = Set of Store.oid | Remove

(* Rebuild the dirty spine under one node.  [changes] pairs non-empty
   component lists with actions; returns the new node oid, or None if
   the node emptied out (the parent then drops its entry, so deleted
   directories don't linger as empty husks). *)
let rec update_node t old_oid changes =
  let entries =
    match old_oid with
    | None -> []
    | Some oid -> annotate t.rstore (node_entries t.rstore oid)
  in
  let leaves = Hashtbl.create 8 and subs = Hashtbl.create 8 in
  List.iter
    (fun (comps, act) ->
      match comps with
      | [] -> invalid_arg "Repo: empty path"
      | [ leaf ] -> Hashtbl.replace leaves leaf act
      | child :: rest -> (
          match Hashtbl.find_opt subs child with
          | Some group -> group := (rest, act) :: !group
          | None -> Hashtbl.add subs child (ref [ rest, act ])))
    changes;
  let kept =
    List.filter
      (fun (name, k, _) ->
        match k with
        | File -> not (Hashtbl.mem leaves name)
        | Dir -> not (Hashtbl.mem subs name))
      entries
  in
  let file_entries =
    Hashtbl.fold
      (fun name act acc ->
        match act with Set oid -> (name, File, oid) :: acc | Remove -> acc)
      leaves []
  in
  let dir_entries =
    Hashtbl.fold
      (fun name group acc ->
        let old_sub =
          List.find_map
            (fun (n, k, oid) -> if n = name && k = Dir then Some oid else None)
            entries
        in
        match update_node t old_sub !group with
        | Some oid -> (name, Dir, oid) :: acc
        | None -> acc)
      subs []
  in
  match List.sort compare_entry (file_entries @ dir_entries @ kept) with
  | [] -> None
  | merged ->
      Some (Store.put t.rstore (Store.Tree (List.map (fun (n, _, o) -> n, o) merged)))

(* Resolve a file by descending the spine: O(tree depth x fanout). *)
let rec find_in_node store oid comps =
  match comps with
  | [] -> None
  | [ leaf ] ->
      List.find_map
        (fun (n, o) ->
          if n = leaf then
            match Store.get_exn store o with
            | Store.Blob data -> Some data
            | Store.Tree _ | Store.Commit _ -> None
          else None)
        (node_entries store oid)
  | child :: rest ->
      List.find_map
        (fun (n, o) ->
          if n = child then
            match Store.get_exn store o with
            | Store.Tree _ -> find_in_node store o rest
            | Store.Blob _ | Store.Commit _ -> None
          else None)
        (node_entries store oid)

let rec collect_paths store prefix oid acc =
  List.fold_left
    (fun acc (name, o) ->
      match Store.get_exn store o with
      | Store.Blob _ -> (prefix ^ name) :: acc
      | Store.Tree _ -> collect_paths store (prefix ^ name ^ "/") o acc
      | Store.Commit _ -> acc)
    acc (node_entries store oid)

(* Paths under a string prefix: descend whole components, then filter
   the last (possibly partial) component — O(matching + depth x
   fanout), not O(repo). *)
let rec collect_prefixed store oid comps built acc =
  match comps with
  | [] -> acc
  | [ partial ] ->
      List.fold_left
        (fun acc (name, o) ->
          if has_prefix ~prefix:partial name then
            match Store.get_exn store o with
            | Store.Blob _ -> (built ^ name) :: acc
            | Store.Tree _ -> collect_paths store (built ^ name ^ "/") o acc
            | Store.Commit _ -> acc
          else acc)
        acc (node_entries store oid)
  | comp :: rest ->
      List.fold_left
        (fun acc (name, o) ->
          if name = comp then
            match Store.get_exn store o with
            | Store.Tree _ -> collect_prefixed store o rest (built ^ name ^ "/") acc
            | Store.Blob _ | Store.Commit _ -> acc
          else acc)
        acc (node_entries store oid)

(* Structural diff: recurse only into subtrees whose oids differ, so
   cost is O(changed paths x tree depth), not O(repo). *)
let rec diff_nodes store prefix old_oid new_oid acc =
  if old_oid = new_oid then acc
  else begin
    let load = function
      | None -> []
      | Some oid -> annotate store (node_entries store oid)
    in
    let all_under (name, k, oid) acc =
      match k with
      | File -> (prefix ^ name) :: acc
      | Dir -> collect_paths store (prefix ^ name ^ "/") oid acc
    in
    let rec merge olds news acc =
      match olds, news with
      | [], [] -> acc
      | o :: orest, [] -> merge orest [] (all_under o acc)
      | [], n :: nrest -> merge [] nrest (all_under n acc)
      | (o :: orest as oall), (n :: nrest as nall) ->
          let cmp = compare_entry o n in
          if cmp < 0 then merge orest nall (all_under o acc)
          else if cmp > 0 then merge oall nrest (all_under n acc)
          else
            let name, k, ooid = o and _, _, noid = n in
            if ooid = noid then merge orest nrest acc
            else (
              match k with
              | File -> merge orest nrest ((prefix ^ name) :: acc)
              | Dir ->
                  merge orest nrest
                    (diff_nodes store (prefix ^ name ^ "/") (Some ooid) (Some noid) acc))
    in
    merge (load old_oid) (load new_oid) acc
  end

let commit_merkle t ~author ~message ~timestamp changes =
  let changes =
    List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) changes
  in
  (* Effective actions: a rewrite whose blob oid matches head is a
     no-op (matching flat diff semantics, where an identical rewrite
     never shows up as a changed path). *)
  let actions =
    List.filter_map
      (fun (path, content) ->
        match content with
        | None ->
            if not (Hashtbl.mem t.head_index path) then
              invalid_arg ("delete of missing path " ^ path);
            Some (path, Remove)
        | Some data ->
            let boid = Store.put t.rstore (Store.Blob data) in
            (match Hashtbl.find_opt t.head_index path with
            | Some existing when String.equal existing boid -> None
            | Some _ | None -> Some (path, Set boid)))
      changes
  in
  let old_root =
    match t.rhead with None -> None | Some oid -> Some (root_of_commit t oid)
  in
  let new_root =
    match actions with
    | [] -> old_root
    | _ ->
        update_node t old_root
          (List.map (fun (path, act) -> String.split_on_char '/' path, act) actions)
  in
  let tree =
    match new_root with Some oid -> oid | None -> Store.put t.rstore (Store.Tree [])
  in
  let parents, generation =
    match t.rhead with
    | None -> [], 1
    | Some oid ->
        let gen =
          match commit_info t oid with Some c -> c.Store.generation | None -> 0
        in
        [ oid ], gen + 1
  in
  let changed = List.map fst actions in
  let coid =
    Store.put t.rstore
      (Store.Commit { Store.tree; parents; author; message; timestamp; generation; changed })
  in
  List.iter
    (fun (path, act) ->
      (match act with
      | Set boid -> Hashtbl.replace t.head_index path boid
      | Remove -> Hashtbl.remove t.head_index path);
      match Hashtbl.find_opt t.touches path with
      | Some group -> group := coid :: !group
      | None -> Hashtbl.add t.touches path (ref [ coid ]))
    actions;
  coid

(* ===================================================================
   Public API: dispatch on the backend.
   =================================================================== *)

let commit t ~author ~message ~timestamp changes =
  if changes = [] then invalid_arg "Repo.commit: empty change list";
  let oid =
    match t.rbackend with
    | Flat -> commit_flat t ~author ~message ~timestamp changes
    | Merkle -> commit_merkle t ~author ~message ~timestamp changes
  in
  t.rhead <- Some oid;
  t.ncommits <- t.ncommits + 1;
  (* Every landed commit pins a generation: the numbered root that
     makes whole-tree rollback an O(1) repoint (§generations). *)
  ignore (Store.land_generation t.rstore ~root:oid ~timestamp ~message);
  oid

let read_file ?rev t path =
  match t.rbackend with
  | Flat -> (
      let entries = resolve_tree t rev in
      match List.assoc_opt path entries with
      | Some oid -> (
          match Store.get_exn t.rstore oid with
          | Store.Blob data -> Some data
          | Store.Tree _ | Store.Commit _ -> None)
      | None -> None)
  | Merkle -> (
      match rev with
      | None -> (
          match Hashtbl.find_opt t.head_index path with
          | None -> None
          | Some boid -> (
              match Store.get_exn t.rstore boid with
              | Store.Blob data -> Some data
              | Store.Tree _ | Store.Commit _ -> None))
      | Some rev ->
          find_in_node t.rstore (root_of_commit t rev) (String.split_on_char '/' path))

let ls ?rev ?prefix t =
  match t.rbackend with
  | Flat ->
      let paths = List.map fst (resolve_tree t rev) in
      (match prefix with
      | None -> paths
      | Some prefix -> List.filter (has_prefix ~prefix) paths)
  | Merkle -> (
      match rev, prefix with
      | None, None ->
          List.sort String.compare
            (Hashtbl.fold (fun path _ acc -> path :: acc) t.head_index [])
      | rev, prefix ->
          let root =
            match rev, t.rhead with
            | Some rev, _ -> Some (root_of_commit t rev)
            | None, Some head -> Some (root_of_commit t head)
            | None, None -> None
          in
          (match root with
          | None -> []
          | Some root ->
              let collected =
                match prefix with
                | None -> collect_paths t.rstore "" root []
                | Some prefix ->
                    collect_prefixed t.rstore root (String.split_on_char '/' prefix) "" []
              in
              List.sort String.compare collected))

let file_count t =
  match t.rbackend with
  | Flat -> List.length (head_tree t)
  | Merkle -> Hashtbl.length t.head_index

let commit_count t = t.ncommits

let log ?limit t =
  let rec walk oid acc remaining =
    match oid, remaining with
    | None, _ -> List.rev acc
    | _, Some 0 -> List.rev acc
    | Some oid, _ -> (
        match commit_info t oid with
        | None -> List.rev acc
        | Some c ->
            let remaining = Option.map (fun n -> n - 1) remaining in
            let parent = match c.Store.parents with [] -> None | p :: _ -> Some p in
            walk parent ((oid, c) :: acc) remaining)
  in
  walk t.rhead [] limit

let changed_paths_of_commit t oid =
  match t.rbackend with
  | Flat -> changed_paths_of_commit_flat t oid
  | Merkle -> ( match commit_info t oid with None -> [] | Some c -> c.Store.changed)

let changed_since t ~base =
  match t.rhead with
  | None -> []
  | Some head_oid ->
      if base = Some head_oid then []
      else begin
        (* Merkle commits replay their recorded change lists —
           O(commits x changed); flat commits re-diff full trees per
           commit — O(commits x repo), the honest legacy cost. *)
        let paths_of oid c =
          match t.rbackend with
          | Merkle -> c.Store.changed
          | Flat -> changed_paths_of_commit_flat t oid
        in
        let seen = Hashtbl.create 16 in
        let rec walk oid =
          match oid with
          | None -> ()
          | Some oid when base = Some oid -> ()
          | Some oid -> (
              match commit_info t oid with
              | None -> ()
              | Some c ->
                  List.iter (fun path -> Hashtbl.replace seen path ()) (paths_of oid c);
                  walk (match c.Store.parents with [] -> None | p :: _ -> Some p))
        in
        walk (Some head_oid);
        List.sort String.compare (Hashtbl.fold (fun path () acc -> path :: acc) seen [])
      end

let changed_between t ~base ~head =
  match t.rbackend with
  | Flat ->
      let old_entries = match base with None -> [] | Some oid -> tree_of_commit t oid in
      diff_trees old_entries (tree_of_commit t head)
  | Merkle ->
      let old_root = Option.map (root_of_commit t) base in
      List.sort_uniq String.compare
        (diff_nodes t.rstore "" old_root (Some (root_of_commit t head)) [])

let conflicts t ~base ~paths =
  (* One hash set of touched paths, then a linear membership filter —
     O(touched + |paths|) instead of the old O(touched x |paths|). *)
  let touched = Hashtbl.create 16 in
  List.iter (fun path -> Hashtbl.replace touched path ()) (changed_since t ~base);
  List.filter (Hashtbl.mem touched) paths

let is_ancestor t candidate ~of_ =
  match t.rbackend with
  | Flat ->
      let rec walk oid =
        match oid with
        | None -> false
        | Some oid when oid = candidate -> true
        | Some oid -> (
            match commit_info t oid with
            | None -> false
            | Some c -> walk (match c.Store.parents with [] -> None | p :: _ -> Some p))
      in
      walk (Some of_)
  | Merkle -> (
      (* Generation compare first: an ancestor's generation is strictly
         smaller, so most negatives are O(1) and the walk is bounded by
         the generation gap. *)
      if String.equal candidate of_ then true
      else
        match commit_info t candidate, commit_info t of_ with
        | Some cc, Some oc ->
            if cc.Store.generation >= oc.Store.generation then false
            else
              let rec walk oid =
                if String.equal oid candidate then true
                else
                  match commit_info t oid with
                  | None -> false
                  | Some c ->
                      if c.Store.generation <= cc.Store.generation then false
                      else (
                        match c.Store.parents with [] -> false | p :: _ -> walk p)
              in
              walk of_
        | _, _ -> false)

let path_history t path =
  match t.rbackend with
  | Merkle -> (
      match Hashtbl.find_opt t.touches path with
      | None -> []
      | Some oids ->
          List.filter_map
            (fun oid -> Option.map (fun c -> oid, c) (commit_info t oid))
            !oids)
  | Flat ->
      (* Legacy scan: every commit's full-tree diff, O(history x repo). *)
      List.filter
        (fun (oid, _) -> List.mem path (changed_paths_of_commit_flat t oid))
        (log t)

(* ===================================================================
   Generations: rollback, GC, recovery.
   =================================================================== *)

(* Rebuild the Merkle head/touch indexes from scratch — O(files at
   head) + O(retained history), independent of total history length:
   what makes recovery and rollback cheap even on long histories. *)
let rebuild_indexes t =
  Hashtbl.reset t.head_index;
  Hashtbl.reset t.touches;
  match t.rbackend with
  | Flat -> ()
  | Merkle -> (
      (match t.rhead with
      | None -> ()
      | Some head ->
          let rec walk prefix oid =
            List.iter
              (fun (name, o) ->
                match Store.get_exn t.rstore o with
                | Store.Blob _ -> Hashtbl.replace t.head_index (prefix ^ name) o
                | Store.Tree _ -> walk (prefix ^ name ^ "/") o
                | Store.Commit _ -> ())
              (node_entries t.rstore oid)
          in
          walk "" (root_of_commit t head));
      (* Oldest first so consing leaves each group newest-first. *)
      List.iter
        (fun (oid, c) ->
          List.iter
            (fun path ->
              match Hashtbl.find_opt t.touches path with
              | Some group -> group := oid :: !group
              | None -> Hashtbl.add t.touches path (ref [ oid ]))
            c.Store.changed)
        (List.rev (log t)))

let rollback t ~generation ~timestamp =
  let gens = Store.generations t.rstore in
  match List.find_opt (fun g -> g.Store.gen_num = generation) gens with
  | None ->
      invalid_arg (Printf.sprintf "Repo.rollback: unknown generation %d" generation)
  | Some g ->
      (* O(1) at the store: repoint head and append one new pin — no
         object is copied or rewritten, whatever the history length. *)
      t.rhead <- Some g.Store.gen_root;
      let num =
        Store.land_generation t.rstore ~root:g.Store.gen_root ~timestamp
          ~message:(Printf.sprintf "rollback to generation %d" generation)
      in
      Store.sync t.rstore;
      t.ncommits <- List.length (log t);
      rebuild_indexes t;
      num

let gc t ~keep_last =
  let stats = Store.gc t.rstore ~keep_last in
  (* Head is pinned by the newest generation, so it always survives;
     swept commits simply vanish from log/touch walks (commit_info
     returns None and the walks stop). *)
  t.ncommits <- List.length (log t);
  stats

(* Is the whole commit -> tree closure under [root] present?  A pin
   can be durable while some of its objects were lost to a crash
   (torn data batch); such a generation is unusable. *)
let closure_complete store root =
  let seen = Hashtbl.create 256 in
  let rec walk oid =
    Hashtbl.mem seen oid
    ||
    match Store.get store oid with
    | None -> false
    | Some obj -> (
        Hashtbl.replace seen oid ();
        match obj with
        | Store.Blob _ -> true
        | Store.Tree entries -> List.for_all (fun (_, o) -> walk o) entries
        | Store.Commit c -> walk c.Store.tree)
  in
  walk root

let of_store ?backend ?(name = "configerator") store =
  let newest_first = List.rev (Store.generations store) in
  let rec choose dropped = function
    | [] -> None, dropped
    | g :: rest ->
        if closure_complete store g.Store.gen_root then Some g, dropped
        else choose (dropped + 1) rest
  in
  let chosen, dropped = choose 0 newest_first in
  let rhead = Option.map (fun g -> g.Store.gen_root) chosen in
  let rbackend =
    match backend, rhead with
    | Some b, _ -> b
    | None, None -> Merkle
    | None, Some oid -> (
        (* Flat commits carry the generation = 0 sentinel. *)
        match Store.get store oid with
        | Some (Store.Commit c) -> if c.Store.generation = 0 then Flat else Merkle
        | Some (Store.Blob _ | Store.Tree _) | None -> Merkle)
  in
  let t =
    {
      rname = name;
      rstore = store;
      rbackend;
      rhead;
      ncommits = 0;
      head_index = Hashtbl.create 256;
      touches = Hashtbl.create 256;
      rdropped = dropped;
    }
  in
  t.ncommits <- List.length (log t);
  rebuild_indexes t;
  t

let recovery_dropped t = t.rdropped
