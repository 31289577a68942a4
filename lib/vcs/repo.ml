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
   Merkle backend: directory-sharded trees with bounded-width nodes.
   A directory's entries are path components; an entry's oid names a
   Blob (file) or another directory.  The same component may appear
   once as each, since the flat namespace allows "a" and "a/b" to
   coexist; the file sorts first.

   A directory of at most [width] entries is one plain name-sorted
   Tree.  A wider one is a fan node: up to 16 buckets keyed by
   successive hex digits of the MD5 of each entry name, each bucket
   plain or, while still wider than [width], a fan one digit deeper --
   the HAMT-sharded directory of content-addressed stores such as IPFS
   UnixFS.  A bucket entry is named [fan_marker] and its hex digit;
   commits reject the marker byte in paths, so no real entry looks
   like one.  The layout is a pure function of the directory's entry
   set, so equal file maps give equal roots whatever the history.  A
   commit rewrites the changed leaves and the nodes above them -- a
   spine of nodes of at most [width] entries, however wide the
   directories -- and shares every other node by oid.
   =================================================================== *)

(* The widest plain node, from a measured sweep of commit and diff
   cost (DESIGN.md, storage plane). *)
let width = 32

let fan_marker = '\002'
let max_depth = 32 (* hex digits in an MD5 digest *)
let bucket_names = Array.init 16 (fun d -> Printf.sprintf "%c%x" fan_marker d)

(* Hex digit [depth] of a raw digest. *)
let digit digest depth =
  let byte = Char.code digest.[depth / 2] in
  if depth land 1 = 0 then byte lsr 4 else byte land 15

let is_fan = function
  | (name, _) :: _ -> name <> "" && name.[0] = fan_marker
  | [] -> false

let node_entries store oid =
  match Store.get_exn store oid with
  | Store.Tree entries -> entries
  | Store.Blob _ | Store.Commit _ -> invalid_arg "corrupt merkle tree: oid is not a tree"

let root_of_commit t oid =
  match Store.get_exn t.rstore oid with
  | Store.Commit c -> c.Store.tree
  | Store.Blob _ | Store.Tree _ -> invalid_arg "not a commit"

(* Every entry of a directory node, through its fan buckets. *)
let rec fold_entries store f entries acc =
  if is_fan entries then
    List.fold_left (fun acc (_, b) -> fold_entries store f (node_entries store b) acc) acc entries
  else List.fold_left (fun acc e -> f e acc) acc entries

let fold_dir store f oid acc = fold_entries store f (node_entries store oid) acc

(* A directory node's entries as one name-sorted list.  Equal names
   share a bucket, file first, and the stable sort keeps them so. *)
let flatten store entries =
  if is_fan entries then
    List.stable_sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.rev (fold_entries store List.cons entries []))
  else entries

(* The leading entries named [name] of a name-sorted list (the file,
   then the directory), and the rest. *)
let take_name name entries =
  let rec go same = function
    | ((n, _) as e) :: rest when String.equal n name -> go (e :: same) rest
    | rest -> List.rev same, rest
  in
  go [] entries

(* The file and the directory among one name's entries. *)
let file_and_dir store entries =
  List.fold_left
    (fun (file, dir) (_, o) ->
      match Store.get_exn store o with
      | Store.Blob _ -> Some o, dir
      | Store.Tree _ -> file, Some o
      | Store.Commit _ -> invalid_arg "corrupt merkle tree: commit inside a tree")
    (None, None) entries

(* The one plain node of directory [oid] that can hold [name]: descend
   the fan buckets along the name's digest. *)
let bucket_of store oid name =
  let digest = Digest.string name in
  let rec descend oid depth =
    let entries = node_entries store oid in
    if is_fan entries then
      match List.assoc_opt bucket_names.(digit digest depth) entries with
      | Some b -> descend b (depth + 1)
      | None -> []
    else entries
  in
  descend oid 0

type action = Set of Store.oid | Remove

(* One touched name of a directory: the action on the file of that
   name, the changes below the subdirectory of that name ([[]] if
   none), and the name's digest once {!digest_of} has computed it (at
   most once per commit, and only if the directory is or becomes a
   fan; a plain [lazy] costs more than the hash here). *)
type edit = {
  name : string;
  mutable file : action option;
  mutable sub : (string list * action) list;
  mutable digest : string;  (* "" until computed *)
}

let digest_of e =
  if e.digest = "" then e.digest <- Digest.string e.name;
  e.digest

let put_tree t entries = Store.put t.rstore (Store.Tree entries)

(* The canonical node at fan depth [depth] for the name-sorted slice
   [lo, hi) of [src], entries paired with their names' digests.  Each
   level scatters its slice into the same slice of [tmp] by hex digit
   (a stable counting sort, so every bucket stays name-sorted) and
   recurses with the two arrays swapped: a wide directory is laid out
   without a list per level. *)
let rec put_slice t ~depth src tmp lo hi =
  let n = hi - lo in
  if n <= width || depth >= max_depth then put_tree t (List.init n (fun i -> snd src.(lo + i)))
  else begin
    let starts = Array.make 17 0 in
    for i = lo to hi - 1 do
      let b = digit (fst src.(i)) depth + 1 in
      starts.(b) <- starts.(b) + 1
    done;
    for b = 1 to 16 do
      starts.(b) <- starts.(b) + starts.(b - 1)
    done;
    let next = Array.sub starts 0 16 in
    for i = lo to hi - 1 do
      let b = digit (fst src.(i)) depth in
      tmp.(lo + next.(b)) <- src.(i);
      next.(b) <- next.(b) + 1
    done;
    put_tree t
      (List.filter_map
         (fun b ->
           if starts.(b) = starts.(b + 1) then None
           else
             Some
               ( bucket_names.(b),
                 put_slice t ~depth:(depth + 1) tmp src (lo + starts.(b)) (lo + starts.(b + 1)) ))
         (List.init 16 Fun.id))
  end

(* Lay out [n] name-sorted entries, more than [width], at fan depth
   [depth], hashing each name once: the digests of the name-sorted
   [edits] are reused. *)
let put_wide t ~depth n entries edits =
  let hashed = Array.make n ("", ("", "")) in
  let rec fill i entries edits =
    match entries, edits with
    | [], _ -> ()
    | ((name, _) as e) :: rest, ed :: more ->
        let c = String.compare name ed.name in
        if c > 0 then fill i entries more
        else begin
          hashed.(i) <- ((if c = 0 then digest_of ed else Digest.string name), e);
          fill (i + 1) rest edits
        end
    | ((name, _) as e) :: rest, [] ->
        hashed.(i) <- (Digest.string name, e);
        fill (i + 1) rest []
  in
  fill 0 entries edits;
  put_slice t ~depth hashed (Array.copy hashed) 0 n

(* Do these fan buckets hold [width] entries or fewer in all?  A fan
   bucket alone holds more, so this reads a few plain buckets at most. *)
let narrow store buckets =
  let rec count n = function
    | [] -> true
    | (_, oid) :: rest ->
        let entries = node_entries store oid in
        (not (is_fan entries))
        &&
        let n = n + List.length entries in
        n <= width && count n rest
  in
  count 0 buckets

(* Rebuild the dirty spine under one directory.  [changes] pairs
   non-empty component lists with actions; returns the new node oid, or
   None if the directory emptied out (the parent then drops its entry,
   so deleted directories don't linger as empty husks). *)
let rec update_dir t old_oid changes =
  let touched = Hashtbl.create (min 1024 (List.length changes)) and edits = ref [] in
  let edit name =
    match Hashtbl.find_opt touched name with
    | Some e -> e
    | None ->
        let e = { name; file = None; sub = []; digest = "" } in
        Hashtbl.add touched name e;
        edits := e :: !edits;
        e
  in
  List.iter
    (fun (comps, act) ->
      match comps with
      | [] -> invalid_arg "Repo: empty path"
      | [ leaf ] -> (edit leaf).file <- Some act
      | child :: rest ->
          let e = edit child in
          e.sub <- (rest, act) :: e.sub)
    changes;
  fst (update_node t ~depth:0 old_oid (List.sort (fun a b -> String.compare a.name b.name) !edits))

(* Apply name-sorted [edits] to one node of a directory at fan depth
   [depth]; returns the new node and the change in its entry count. *)
and update_node t ~depth old_oid edits =
  let entries = match old_oid with None -> [] | Some oid -> node_entries t.rstore oid in
  if is_fan entries then update_fan t ~depth entries edits else update_plain t ~depth entries edits

(* One merge of the sorted entries with the edits: only entries sharing
   a touched name are looked up (for their kind). *)
and update_plain t ~depth entries edits =
  let rec merge entries edits acc =
    match entries, edits with
    | rest, [] -> List.rev_append acc rest
    | [], e :: more -> merge [] more (apply_edit t e [] acc)
    | ((name, _) as entry) :: rest, e :: more ->
        let c = String.compare name e.name in
        if c < 0 then merge rest edits (entry :: acc)
        else if c > 0 then merge entries more (apply_edit t e [] acc)
        else
          let same, rest = take_name name entries in
          merge rest more (apply_edit t e same acc)
  in
  let before = List.length entries in
  match merge entries edits [] with
  | [] -> None, -before
  | merged ->
      let n = List.length merged in
      let oid =
        if n <= width then put_tree t merged
        else put_wide t ~depth n merged edits
      in
      Some oid, n - before

(* Push one touched name's new entries onto the reversed [acc]. *)
and apply_edit t e olds acc =
  let old_file, old_dir = file_and_dir t.rstore olds in
  let file =
    match e.file with None -> old_file | Some (Set oid) -> Some oid | Some Remove -> None
  in
  let dir = match e.sub with [] -> old_dir | sub -> update_dir t old_dir sub in
  let acc = match file with Some o -> (e.name, o) :: acc | None -> acc in
  match dir with Some o -> (e.name, o) :: acc | None -> acc

(* Only the touched buckets are rebuilt.  A fan holds more than [width]
   entries, so only a net loss can take it back to one plain node. *)
and update_fan t ~depth entries edits =
  let groups = Array.make 16 [] in
  List.iter
    (fun e ->
      let b = digit (digest_of e) depth in
      groups.(b) <- e :: groups.(b))
    (List.rev edits);
  let delta = ref 0 in
  let buckets =
    List.filter_map
      (fun b ->
        let old = List.assoc_opt bucket_names.(b) entries in
        let node =
          match groups.(b) with
          | [] -> old
          | group ->
              let node, d = update_node t ~depth:(depth + 1) old group in
              delta := !delta + d;
              node
        in
        Option.map (fun oid -> bucket_names.(b), oid) node)
      (List.init 16 Fun.id)
  in
  if !delta < 0 && narrow t.rstore buckets then
    match flatten t.rstore buckets with
    | [] -> None, !delta
    | merged -> Some (put_tree t merged), !delta
  else Some (put_tree t buckets), !delta

(* Resolve a file by descending the spine: O(tree depth x width). *)
let rec find_in_node store oid comps =
  match comps with
  | [] -> None
  | name :: rest ->
      List.find_map
        (fun (n, o) ->
          if not (String.equal n name) then None
          else
            match Store.get_exn store o, rest with
            | Store.Blob data, [] -> Some data
            | Store.Tree _, _ :: _ -> find_in_node store o rest
            | (Store.Blob _ | Store.Tree _ | Store.Commit _), _ -> None)
        (bucket_of store oid name)

let rec fold_files store prefix oid f acc =
  fold_dir store
    (fun (name, o) acc ->
      match Store.get_exn store o with
      | Store.Blob _ -> f (prefix ^ name) o acc
      | Store.Tree _ -> fold_files store (prefix ^ name ^ "/") o f acc
      | Store.Commit _ -> acc)
    oid acc

let collect_paths store prefix oid acc =
  fold_files store prefix oid (fun path _ acc -> path :: acc) acc

(* Paths under a string prefix: descend whole components, then filter
   the last (possibly partial) component -- O(matching + depth x
   width), not O(repo). *)
let rec collect_prefixed store oid comps built acc =
  match comps with
  | [] -> acc
  | [ partial ] ->
      fold_dir store
        (fun (name, o) acc ->
          if has_prefix ~prefix:partial name then
            match Store.get_exn store o with
            | Store.Blob _ -> (built ^ name) :: acc
            | Store.Tree _ -> collect_paths store (built ^ name ^ "/") o acc
            | Store.Commit _ -> acc
          else acc)
        oid acc
  | comp :: rest ->
      List.fold_left
        (fun acc (name, o) ->
          if String.equal name comp then
            match Store.get_exn store o with
            | Store.Tree _ -> collect_prefixed store o rest (built ^ name ^ "/") acc
            | Store.Blob _ | Store.Commit _ -> acc
          else acc)
        acc (bucket_of store oid comp)

(* Merge two name-sorted lists: [one] takes an element found on one
   side only, [both] a pair with equal names. *)
let merge_by_name ~one ~both olds news acc =
  let rec go olds news acc =
    match olds, news with
    | [], [] -> acc
    | o :: orest, [] -> go orest [] (one o acc)
    | [], n :: nrest -> go [] nrest (one n acc)
    | ((oname, _) as o) :: orest, ((nname, _) as n) :: nrest ->
        let c = String.compare oname nname in
        if c < 0 then go orest news (one o acc)
        else if c > 0 then go olds nrest (one n acc)
        else go orest nrest (both o n acc)
  in
  go olds news acc

(* A name-sorted entry list grouped by name. *)
let group_names entries =
  let rec go acc = function
    | [] -> List.rev acc
    | (name, _) :: _ as entries ->
        let same, rest = take_name name entries in
        go ((name, same) :: acc) rest
  in
  go [] entries

(* Structural diff of two nodes of one directory at one fan depth:
   recurse only into nodes whose oids differ, so cost is O(changed
   paths x depth x width), not O(repo).  Two fans diff bucket by
   bucket; only a directory that crossed [width] is flattened.  Only
   the entries of names whose oids differ are looked up. *)
let rec diff_nodes store prefix old_oid new_oid acc =
  match old_oid, new_oid with
  | None, None -> acc
  | Some o, Some n when String.equal o n -> acc
  | Some oid, None | None, Some oid -> collect_paths store prefix oid acc
  | Some old_oid, Some new_oid ->
      let olds = node_entries store old_oid and news = node_entries store new_oid in
      if is_fan olds && is_fan news then
        merge_by_name
          ~one:(fun (_, b) acc -> collect_paths store prefix b acc)
          ~both:(fun (_, o) (_, n) acc -> diff_nodes store prefix (Some o) (Some n) acc)
          olds news acc
      else
        merge_by_name
          ~one:(fun (name, group) acc -> diff_name store prefix name group [] acc)
          ~both:(fun (name, ogroup) (_, ngroup) acc ->
            if ogroup = ngroup then acc else diff_name store prefix name ogroup ngroup acc)
          (group_names (flatten store olds))
          (group_names (flatten store news))
          acc

and diff_name store prefix name olds news acc =
  let old_file, old_dir = file_and_dir store olds in
  let new_file, new_dir = file_and_dir store news in
  let acc = if old_file = new_file then acc else (prefix ^ name) :: acc in
  if old_dir = new_dir then acc else diff_nodes store (prefix ^ name ^ "/") old_dir new_dir acc

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
        update_dir t old_root
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

(* NUL and newline delimit tree entries and '\001' the commit's change
   record, so such a path would be acked and then lost on reopen. *)
let path_error path =
  let n = String.length path in
  let rec scan i =
    if i = n then None
    else
      match path.[i] with
      | '\000' | '\n' | '\001' -> Some "a path may not contain NUL, newline or \\001 bytes"
      | c when c = fan_marker -> Some "a path may not contain the fan-node marker byte \\002"
      | '/' when i = 0 || i = n - 1 || path.[i - 1] = '/' ->
          Some "a path may not have an empty component"
      | _ -> scan (i + 1)
  in
  if n = 0 then Some "a path may not be empty" else scan 0

let commit t ~author ~message ~timestamp changes =
  if changes = [] then invalid_arg "Repo.commit: empty change list";
  List.iter
    (fun (path, _) ->
      match path_error path with
      | Some reason -> invalid_arg (Printf.sprintf "Repo.commit: %S: %s" path reason)
      | None -> ())
    changes;
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
          fold_files t.rstore "" (root_of_commit t head)
            (fun path o () -> Hashtbl.replace t.head_index path o)
            ());
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
