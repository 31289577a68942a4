module Diff = Cm_vcs.Diff
module Store = Cm_vcs.Store
module Repo = Cm_vcs.Repo
module Multirepo = Cm_vcs.Multirepo

(* --- diff ------------------------------------------------------------ *)

let diff_tests =
  [
    Alcotest.test_case "identical texts" `Quick (fun () ->
        Alcotest.(check int) "no changes" 0 (Diff.line_changes "a\nb" "a\nb"));
    Alcotest.test_case "identical empty texts" `Quick (fun () ->
        Alcotest.(check int) "no changes" 0 (Diff.line_changes "" ""));
    Alcotest.test_case "add a line is one change" `Quick (fun () ->
        Alcotest.(check int) "one" 1 (Diff.line_changes "a\nb" "a\nb\nc"));
    Alcotest.test_case "delete a line is one change" `Quick (fun () ->
        Alcotest.(check int) "one" 1 (Diff.line_changes "a\nb\nc" "a\nc"));
    Alcotest.test_case "modify a line is two changes (paper's Table 2 convention)" `Quick
      (fun () -> Alcotest.(check int) "two" 2 (Diff.line_changes "a\nb\nc" "a\nX\nc"));
    Alcotest.test_case "stats split" `Quick (fun () ->
        let added, deleted = Diff.stats (Diff.diff "a\nb" "b\nc") in
        Alcotest.(check (pair int int)) "1 added 1 deleted" (1, 1) (added, deleted));
    Alcotest.test_case "empty to text" `Quick (fun () ->
        Alcotest.(check int) "adds" 2 (Diff.line_changes "" "x\ny"));
    Alcotest.test_case "text to empty" `Quick (fun () ->
        Alcotest.(check int) "deletes" 2 (Diff.line_changes "x\ny" ""));
    Alcotest.test_case "trailing newline is a line change" `Quick (fun () ->
        (* "a\n" splits to ["a"; ""]: dropping the trailing newline
           deletes the empty final line. *)
        Alcotest.(check int) "drop" 1 (Diff.line_changes "a\n" "a");
        Alcotest.(check int) "gain" 1 (Diff.line_changes "a" "a\n");
        Alcotest.(check int) "keep" 0 (Diff.line_changes "a\n" "a\n"));
    Alcotest.test_case "apply replays" `Quick (fun () ->
        let old_text = "one\ntwo\nthree" and new_text = "one\n2\nthree\nfour" in
        let edits = Diff.diff old_text new_text in
        Alcotest.(check (option string)) "patch" (Some new_text)
          (Diff.apply old_text edits));
    Alcotest.test_case "apply rejects mismatched base" `Quick (fun () ->
        let edits = Diff.diff "a\nb" "a\nc" in
        Alcotest.(check (option string)) "mismatch" None (Diff.apply "x\ny" edits));
  ]

(* Lines shared at even indexes, distinct at odd ones: an exact LCS
   keeps half the lines, the size-guard fallback replaces them all —
   so the two regimes are distinguishable by stats. *)
let half_shared n tag =
  String.concat "\n"
    (List.init n (fun i ->
         if i mod 2 = 0 then Printf.sprintf "s%d" i else Printf.sprintf "%s%d" tag i))

let size_guard_tests =
  [
    Alcotest.test_case "below the cell budget the diff is exact" `Quick (fun () ->
        let n = 400 in
        (* ~160k cells after stripping: under max_exact_cells. *)
        let a = half_shared n "a" and b = half_shared n "b" in
        let added, deleted = Diff.stats (Diff.diff a b) in
        Alcotest.(check bool) "under budget" true (n * n < Diff.max_exact_cells);
        Alcotest.(check (pair int int)) "keeps shared lines" (n / 2, n / 2) (added, deleted));
    Alcotest.test_case "above the cell budget falls back to whole replace" `Quick
      (fun () ->
        let n = 600 in
        let a = half_shared n "a" and b = half_shared n "b" in
        let added, deleted = Diff.stats (Diff.diff a b) in
        (* The common prefix line "s0" is stripped; the 599-line middles
           exceed the budget and are replaced wholesale. *)
        Alcotest.(check bool) "over budget" true ((n - 1) * (n - 1) > Diff.max_exact_cells);
        Alcotest.(check (pair int int)) "full replace" (n - 1, n - 1) (added, deleted));
    Alcotest.test_case "fallback scripts still apply" `Quick (fun () ->
        let a = half_shared 600 "a" and b = half_shared 600 "b" in
        Alcotest.(check (option string)) "round trip" (Some b) (Diff.apply a (Diff.diff a b)));
  ]

let gen_lines =
  QCheck2.Gen.(list_size (int_range 0 30) (string_size ~gen:(char_range 'a' 'e') (int_range 0 3)))

let diff_patch_property =
  QCheck2.Test.make ~name:"apply (diff a b) a = b" ~count:300
    QCheck2.Gen.(pair gen_lines gen_lines)
    (fun (a, b) ->
      let old_text = String.concat "\n" a and new_text = String.concat "\n" b in
      Diff.apply old_text (Diff.diff old_text new_text) = Some new_text)

let diff_minimal_property =
  QCheck2.Test.make ~name:"diff of equal texts is all Keep" ~count:100 gen_lines (fun a ->
      let text = String.concat "\n" a in
      List.for_all
        (fun edit -> match edit with Diff.Keep _ -> true | Diff.Del _ | Diff.Add _ -> false)
        (Diff.diff text text))

(* --- store ----------------------------------------------------------- *)

let store_tests =
  [
    Alcotest.test_case "put/get round trip" `Quick (fun () ->
        let store = Store.create () in
        let oid = Store.put store (Store.Blob "hello") in
        Alcotest.(check bool) "mem" true (Store.mem store oid);
        match Store.get store oid with
        | Some (Store.Blob data) -> Alcotest.(check string) "data" "hello" data
        | _ -> Alcotest.fail "missing blob");
    Alcotest.test_case "content addressed: same content, same id" `Quick (fun () ->
        let store = Store.create () in
        let a = Store.put store (Store.Blob "x") in
        let b = Store.put store (Store.Blob "x") in
        Alcotest.(check string) "same oid" a b;
        Alcotest.(check int) "one object" 1 (Store.object_count store));
    Alcotest.test_case "total_bytes counts deduplicated content once" `Quick (fun () ->
        let store = Store.create () in
        ignore (Store.put store (Store.Blob "hello"));
        let bytes_once = Store.total_bytes store in
        ignore (Store.put store (Store.Blob "hello"));
        Alcotest.(check int) "bytes unchanged" bytes_once (Store.total_bytes store);
        Alcotest.(check int) "two puts" 2 (Store.put_count store);
        Alcotest.(check int) "one dedup hit" 1 (Store.dedup_hits store);
        Alcotest.(check int) "dedup bytes = serialized size" bytes_once
          (Store.dedup_bytes store);
        ignore (Store.put store (Store.Blob "other"));
        Alcotest.(check bool) "new content adds bytes" true
          (Store.total_bytes store > bytes_once));
    Alcotest.test_case "different kinds differ" `Quick (fun () ->
        let store = Store.create () in
        let blob = Store.put store (Store.Blob "x") in
        let tree = Store.put store (Store.Tree [ "x", blob ]) in
        Alcotest.(check bool) "distinct" true (blob <> tree));
    Alcotest.test_case "get_exn on unknown raises" `Quick (fun () ->
        let store = Store.create () in
        match Store.get_exn store "deadbeef" with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected exception");
  ]

(* --- repo (both backends run the same suite) -------------------------- *)

let commit repo changes =
  Repo.commit repo ~author:"test" ~message:"m" ~timestamp:0.0 changes

(* NUL and newline delimit tree entries, '\001' the commit's change
   record, '\002' marks a Merkle fan bucket; empty components have no
   tree entry. *)
let bad_paths = [ "a\nb"; "a\000b"; "a\001b"; "a\002b"; "d/\0020"; ""; "/a"; "a/"; "a//b" ]

let repo_tests backend =
  let create () = Repo.create ~backend () in
  [
    Alcotest.test_case "empty repo" `Quick (fun () ->
        let repo = create () in
        Alcotest.(check bool) "no head" true (Repo.head repo = None);
        Alcotest.(check int) "no files" 0 (Repo.file_count repo);
        Alcotest.(check int) "log empty" 0 (List.length (Repo.log repo));
        Alcotest.(check (list string)) "ls empty" [] (Repo.ls repo);
        Alcotest.(check (list string)) "prefixed ls empty" [] (Repo.ls ~prefix:"a" repo));
    Alcotest.test_case "commit and read" `Quick (fun () ->
        let repo = create () in
        ignore (commit repo [ "a.json", Some "1"; "b.json", Some "2" ]);
        Alcotest.(check (option string)) "a" (Some "1") (Repo.read_file repo "a.json");
        Alcotest.(check (list string)) "ls" [ "a.json"; "b.json" ] (Repo.ls repo);
        Alcotest.(check int) "2 files" 2 (Repo.file_count repo));
    Alcotest.test_case "update and delete" `Quick (fun () ->
        let repo = create () in
        ignore (commit repo [ "a", Some "1"; "b", Some "2" ]);
        ignore (commit repo [ "a", Some "1b"; "b", None ]);
        Alcotest.(check (option string)) "updated" (Some "1b") (Repo.read_file repo "a");
        Alcotest.(check (option string)) "deleted" None (Repo.read_file repo "b");
        Alcotest.(check int) "1 file" 1 (Repo.file_count repo));
    Alcotest.test_case "nested paths and prefix ls" `Quick (fun () ->
        let repo = create () in
        ignore
          (commit repo
             [
               "feed/a.json", Some "1";
               "feed/rank/b.json", Some "2";
               "tao/c.json", Some "3";
             ]);
        Alcotest.(check (list string)) "ls sorted"
          [ "feed/a.json"; "feed/rank/b.json"; "tao/c.json" ]
          (Repo.ls repo);
        Alcotest.(check (list string)) "prefix feed/"
          [ "feed/a.json"; "feed/rank/b.json" ]
          (Repo.ls ~prefix:"feed/" repo);
        Alcotest.(check (list string)) "partial component prefix"
          [ "feed/rank/b.json" ]
          (Repo.ls ~prefix:"feed/ra" repo);
        Alcotest.(check (list string)) "no match" [] (Repo.ls ~prefix:"zeus" repo);
        Alcotest.(check (option string)) "nested read" (Some "2")
          (Repo.read_file repo "feed/rank/b.json"));
    Alcotest.test_case "a path can be both file and directory prefix" `Quick (fun () ->
        let repo = create () in
        ignore (commit repo [ "a", Some "file"; "a/b", Some "nested" ]);
        Alcotest.(check (option string)) "file" (Some "file") (Repo.read_file repo "a");
        Alcotest.(check (option string)) "nested" (Some "nested")
          (Repo.read_file repo "a/b");
        ignore (commit repo [ "a", None ]);
        Alcotest.(check (option string)) "file gone" None (Repo.read_file repo "a");
        Alcotest.(check (option string)) "nested survives" (Some "nested")
          (Repo.read_file repo "a/b");
        Alcotest.(check (list string)) "ls" [ "a/b" ] (Repo.ls repo));
    Alcotest.test_case "deleting a directory's last file drops the subtree" `Quick
      (fun () ->
        let repo = create () in
        ignore (commit repo [ "d/e/f", Some "1"; "top", Some "2" ]);
        ignore (commit repo [ "d/e/f", None ]);
        Alcotest.(check (list string)) "ls" [ "top" ] (Repo.ls repo);
        Alcotest.(check (list string)) "prefix d" [] (Repo.ls ~prefix:"d" repo);
        Alcotest.(check int) "1 file" 1 (Repo.file_count repo));
    Alcotest.test_case "delete missing path fails" `Quick (fun () ->
        let repo = create () in
        match commit repo [ "ghost", None ] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected failure");
    Alcotest.test_case "paths the object format cannot hold are rejected" `Quick
      (fun () ->
        let repo = create () in
        ignore (commit repo [ "ok", Some "1" ]);
        List.iter
          (fun path ->
            match commit repo [ "fine", Some "2"; path, Some "3" ] with
            | exception Invalid_argument _ ->
                Alcotest.(check bool) (String.escaped path ^ " has a reason") true
                  (Repo.path_error path <> None)
            | _ -> Alcotest.failf "committed %S" path)
          bad_paths;
        Alcotest.(check (list string)) "nothing landed" [ "ok" ] (Repo.ls repo);
        Alcotest.(check int) "one commit" 1 (Repo.commit_count repo));
    Alcotest.test_case "empty commit fails" `Quick (fun () ->
        let repo = create () in
        match commit repo [] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected failure");
    Alcotest.test_case "historical reads" `Quick (fun () ->
        let repo = create () in
        let c1 = commit repo [ "a", Some "v1" ] in
        let _c2 = commit repo [ "a", Some "v2" ] in
        Alcotest.(check (option string)) "old rev" (Some "v1")
          (Repo.read_file ~rev:c1 repo "a");
        Alcotest.(check (option string)) "head" (Some "v2") (Repo.read_file repo "a"));
    Alcotest.test_case "log newest first" `Quick (fun () ->
        let repo = create () in
        let c1 = commit repo [ "a", Some "1" ] in
        let c2 = commit repo [ "b", Some "2" ] in
        match Repo.log repo with
        | [ (o2, _); (o1, _) ] ->
            Alcotest.(check string) "newest" c2 o2;
            Alcotest.(check string) "oldest" c1 o1
        | other -> Alcotest.failf "unexpected log length %d" (List.length other));
    Alcotest.test_case "log limit" `Quick (fun () ->
        let repo = create () in
        for i = 1 to 5 do
          ignore (commit repo [ "f", Some (string_of_int i) ])
        done;
        Alcotest.(check int) "limit 2" 2 (List.length (Repo.log ~limit:2 repo));
        Alcotest.(check int) "limit 0" 0 (List.length (Repo.log ~limit:0 repo)));
    Alcotest.test_case "changed_paths_of_commit" `Quick (fun () ->
        let repo = create () in
        ignore (commit repo [ "a", Some "1"; "b", Some "2" ]);
        let c2 = commit repo [ "b", Some "2x"; "c", Some "3" ] in
        Alcotest.(check (list string)) "changed" [ "b"; "c" ]
          (List.sort String.compare (Repo.changed_paths_of_commit repo c2)));
    Alcotest.test_case "identical rewrite is not a change" `Quick (fun () ->
        let repo = create () in
        let c1 = commit repo [ "a", Some "same"; "b", Some "1" ] in
        let c2 = commit repo [ "a", Some "same"; "b", Some "2" ] in
        Alcotest.(check (list string)) "only b" [ "b" ]
          (List.sort String.compare (Repo.changed_paths_of_commit repo c2));
        Alcotest.(check (list string)) "changed_between skips no-op" [ "b" ]
          (Repo.changed_between repo ~base:(Some c1) ~head:c2));
    Alcotest.test_case "path_history" `Quick (fun () ->
        let repo = create () in
        let c1 = commit repo [ "a", Some "1"; "b", Some "1" ] in
        let c2 = commit repo [ "a", Some "2" ] in
        Alcotest.(check (list string)) "a twice, newest first" [ c2; c1 ]
          (List.map fst (Repo.path_history repo "a"));
        Alcotest.(check (list string)) "b once" [ c1 ]
          (List.map fst (Repo.path_history repo "b"));
        Alcotest.(check (list string)) "ghost never" []
          (List.map fst (Repo.path_history repo "ghost")));
    Alcotest.test_case "changed_since and conflicts" `Quick (fun () ->
        let repo = create () in
        let base = commit repo [ "a", Some "1"; "b", Some "2" ] in
        ignore (commit repo [ "a", Some "1x" ]);
        Alcotest.(check (list string)) "changed since base" [ "a" ]
          (Repo.changed_since repo ~base:(Some base));
        Alcotest.(check (list string)) "conflict on a" [ "a" ]
          (Repo.conflicts repo ~base:(Some base) ~paths:[ "a"; "b" ]);
        Alcotest.(check (list string)) "no conflict on b" []
          (Repo.conflicts repo ~base:(Some base) ~paths:[ "b" ]));
    Alcotest.test_case "conflicts at head are empty" `Quick (fun () ->
        let repo = create () in
        let head = commit repo [ "a", Some "1" ] in
        Alcotest.(check (list string)) "none" []
          (Repo.conflicts repo ~base:(Some head) ~paths:[ "a" ]));
    Alcotest.test_case "is_ancestor" `Quick (fun () ->
        let repo = create () in
        let c1 = commit repo [ "a", Some "1" ] in
        let c2 = commit repo [ "a", Some "2" ] in
        let c3 = commit repo [ "a", Some "3" ] in
        Alcotest.(check bool) "c1 ancestor of c2" true (Repo.is_ancestor repo c1 ~of_:c2);
        Alcotest.(check bool) "c1 ancestor of c3" true (Repo.is_ancestor repo c1 ~of_:c3);
        Alcotest.(check bool) "self" true (Repo.is_ancestor repo c2 ~of_:c2);
        Alcotest.(check bool) "c2 not ancestor of c1" false
          (Repo.is_ancestor repo c2 ~of_:c1));
  ]

(* Scratch pack directories, removed when the suite exits. *)
let test_root = "_vcs_test"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir =
  let n = ref 0 in
  fun name ->
    incr n;
    let d = Filename.concat test_root (Printf.sprintf "%s_%d" name !n) in
    rm_rf d;
    d

let root_tree repo =
  match Option.bind (Repo.head repo) (Repo.commit_info repo) with
  | Some c -> c.Store.tree
  | None -> Alcotest.fail "no head"

(* The widest plain Merkle node (Repo's [width]). *)
let node_width = 32

let wide_dir n = List.init n (fun i -> Printf.sprintf "wide/cfg_%04d.json" i, Some (string_of_int i))

let merkle_tests =
  [
    Alcotest.test_case "commit object growth is O(changed), not O(repo)" `Quick
      (fun () ->
        let repo = Repo.create ~backend:Repo.Merkle () in
        let changes =
          List.init 200 (fun i ->
              Printf.sprintf "d%d/cfg_%03d.json" (i mod 10) i, Some (string_of_int i))
        in
        ignore (commit repo changes);
        let store = Repo.store repo in
        let objs = Store.object_count store in
        ignore (commit repo [ "d3/cfg_003.json", Some "updated" ]);
        (* 1 new blob + rewritten leaf dir + rewritten root + commit. *)
        Alcotest.(check bool) "at most 4 new objects" true
          (Store.object_count store - objs <= 4));
    Alcotest.test_case "commit object growth is O(changed) in one 2,000-entry directory"
      `Quick (fun () ->
        let repo = Repo.create ~backend:Repo.Merkle () in
        ignore (commit repo (wide_dir 2_000));
        let store = Repo.store repo in
        let objs = Store.object_count store and bytes = Store.total_bytes store in
        ignore (commit repo [ "wide/cfg_0777.json", Some "updated" ]);
        (* 1 blob + leaf bucket + two fan levels + root + commit; one
           node holding the whole directory would be ~100 KB. *)
        Alcotest.(check bool) "at most 6 new objects" true
          (Store.object_count store - objs <= 6);
        Alcotest.(check bool) "at most 4 KB of new objects" true
          (Store.total_bytes store - bytes <= 4096));
    Alcotest.test_case "a directory of at most width entries hashes as a plain node" `Quick
      (fun () ->
        (* Root tree oids of the same commit before fan nodes existed:
           narrow directories keep their exact layout and bytes. *)
        List.iter
          (fun (n, expected) ->
            let repo = Repo.create () in
            ignore
              (commit repo
                 (("top.json", Some "top")
                 :: List.init n (fun i ->
                        Printf.sprintf "cfg/x_%03d.json" i, Some (Printf.sprintf "v%d" i))));
            Alcotest.(check string) (Printf.sprintf "%d entries" n) expected (root_tree repo))
          (List.filter
             (fun (n, _) -> n <= node_width)
             [
               16, "22764e730e53d2402c660de1d53c9ae8";
               32, "dbc4f98b16e422c51bf6bc51ce51d5ec";
               64, "9722f7cfedb1ab8df742ef8da7f4d56e";
             ]);
        let repo = Repo.create () in
        ignore (commit repo (wide_dir (node_width + 1)));
        ignore (commit repo [ "wide/cfg_0000.json", None ]);
        let narrow = Repo.create () in
        ignore (commit narrow (List.tl (wide_dir (node_width + 1))));
        Alcotest.(check string) "a fan collapses back at width" (root_tree narrow)
          (root_tree repo));
    Alcotest.test_case "a wide repository round-trips through a pack store" `Quick (fun () ->
        let backend = Store.pack_backend (fresh_dir "wide") in
        let repo = Repo.create ~store:backend () in
        ignore (commit repo (("top.json", Some "t") :: wide_dir 2_000));
        let base = Repo.head repo in
        ignore
          (commit repo
             (List.init 40 (fun i -> Printf.sprintf "wide/cfg_%04d.json" (i * 7), None)
             @ List.init 10 (fun i -> Printf.sprintf "wide/new_%d.json" i, Some "n")
             @ [ "wide/cfg_0001.json/nested", Some "both a file and a directory" ]));
        let head = Repo.head repo in
        let paths = Repo.ls repo in
        Store.close (Repo.store repo);
        let reopened = Repo.of_store (Store.create ~backend ()) in
        Alcotest.(check int) "nothing dropped" 0 (Repo.recovery_dropped reopened);
        Alcotest.(check (option string)) "same head" head (Repo.head reopened);
        Alcotest.(check (list string)) "same ls" paths (Repo.ls reopened);
        Alcotest.(check (list string)) "same prefixed ls"
          (List.filter (fun p -> String.length p > 10 && String.sub p 0 10 = "wide/cfg_1") paths)
          (Repo.ls ~prefix:"wide/cfg_1" reopened);
        List.iter
          (fun path ->
            Alcotest.(check (option string)) path (Repo.read_file repo path)
              (Repo.read_file reopened path);
            Alcotest.(check (option string)) (path ^ " at head") (Repo.read_file repo path)
              (Repo.read_file ?rev:head reopened path))
          paths;
        Alcotest.(check int) "changed since base" 51
          (List.length (Repo.changed_between reopened ~base ~head:(Option.get head)));
        Store.close (Repo.store reopened));
    Alcotest.test_case "a refused path never reaches the pack" `Quick (fun () ->
        let backend = Store.pack_backend (fresh_dir "badpath") in
        let repo = Repo.create ~store:backend () in
        ignore (commit repo [ "a", Some "1" ]);
        let head = Repo.head repo in
        List.iter
          (fun path ->
            match commit repo [ path, Some "lost?" ] with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "committed %S" path)
          bad_paths;
        Store.close (Repo.store repo);
        let reopened = Repo.of_store (Store.create ~backend ()) in
        Alcotest.(check int) "nothing dropped" 0 (Repo.recovery_dropped reopened);
        Alcotest.(check (option string)) "same head" head (Repo.head reopened);
        Alcotest.(check (list string)) "ls" [ "a" ] (Repo.ls reopened);
        Store.close (Repo.store reopened));
    Alcotest.test_case "generations count up from 1" `Quick (fun () ->
        let repo = Repo.create ~backend:Repo.Merkle () in
        let c1 = commit repo [ "a", Some "1" ] in
        let c2 = commit repo [ "a", Some "2" ] in
        let gen oid =
          match Repo.commit_info repo oid with
          | Some c -> c.Store.generation
          | None -> -1
        in
        Alcotest.(check int) "root" 1 (gen c1);
        Alcotest.(check int) "child" 2 (gen c2));
    Alcotest.test_case "flat commits leave generation untracked" `Quick (fun () ->
        let repo = Repo.create ~backend:Repo.Flat () in
        let c1 = commit repo [ "a", Some "1" ] in
        match Repo.commit_info repo c1 with
        | Some c ->
            Alcotest.(check int) "sentinel" 0 c.Store.generation;
            Alcotest.(check (list string)) "no record" [] c.Store.changed
        | None -> Alcotest.fail "missing commit");
  ]

(* Property: a random sequence of writes leaves the repo agreeing with
   a plain map. *)
let repo_model_property backend =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "repo(%s) matches map model under random writes"
         (Repo.backend_name backend))
    ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (pair (oneofl [ "a"; "b"; "c"; "d" ]) (string_size ~gen:(char_range '0' '9') (pure 3))))
    (fun writes ->
      let repo = Repo.create ~backend () in
      let model = Hashtbl.create 8 in
      List.iter
        (fun (path, content) ->
          ignore (commit repo [ path, Some content ]);
          Hashtbl.replace model path content)
        writes;
      Hashtbl.fold
        (fun path content acc -> acc && Repo.read_file repo path = Some content)
        model true
      && Repo.file_count repo = Hashtbl.length model)

(* Property: the flat and Merkle backends are observationally
   equivalent under random commit sequences — same reads, listings,
   diffs, history and conflict answers (oids differ, of course). *)
let gen_equiv_script =
  QCheck2.Gen.(
    let path =
      list_size (int_range 1 3) (oneofl [ "a"; "b"; "c"; "d" ]) >|= String.concat "/"
    in
    let change = pair path (option (string_size ~gen:(char_range '0' '9') (pure 2))) in
    list_size (int_range 1 12) (list_size (int_range 1 4) change))

(* Dedup a change list by path (last write wins) and drop deletes of
   paths absent from [model], so every backend gets an applicable
   change list; then apply it to [model]. *)
let applicable model changes =
  let seen = Hashtbl.create 8 in
  let changes =
    List.rev
      (List.filter
         (fun (path, _) ->
           if Hashtbl.mem seen path then false
           else begin
             Hashtbl.add seen path ();
             true
           end)
         (List.rev changes))
  in
  let changes =
    List.filter (fun (path, content) -> content <> None || Hashtbl.mem model path) changes
  in
  List.iter
    (fun (path, content) ->
      match content with
      | Some data -> Hashtbl.replace model path data
      | None -> Hashtbl.remove model path)
    changes;
  changes

(* Run one commit script on both backends and compare every read,
   listing (whole and under [prefixes]), diff and history answer. *)
let backends_agree ~prefixes script =
  let flat = Repo.create ~backend:Repo.Flat () in
  let merkle = Repo.create ~backend:Repo.Merkle () in
  let model = Hashtbl.create 16 in
  let universe = List.sort_uniq String.compare (List.map fst (List.concat script)) in
  let pairs = ref [] in
  List.iteri
    (fun i changes ->
      match applicable model changes with
      | [] -> ()
      | changes ->
          let message = string_of_int i and timestamp = float_of_int i in
          let fo = Repo.commit flat ~author:"eq" ~message ~timestamp changes in
          let mo = Repo.commit merkle ~author:"eq" ~message ~timestamp changes in
          pairs := (fo, mo) :: !pairs)
    script;
  let pairs = List.rev !pairs in
  let same_log =
    let fl = Repo.log flat and ml = Repo.log merkle in
    List.length fl = List.length ml
    && List.for_all2
         (fun (_, fc) (_, mc) ->
           fc.Store.message = mc.Store.message
           && fc.Store.timestamp = mc.Store.timestamp
           && fc.Store.author = mc.Store.author)
         fl ml
  in
  let same_reads =
    List.for_all
      (fun path ->
        Repo.read_file flat path = Repo.read_file merkle path
        && Repo.read_file flat path = Hashtbl.find_opt model path)
      universe
  in
  let same_ls =
    Repo.ls flat = Repo.ls merkle
    && List.for_all
         (fun prefix -> Repo.ls ~prefix flat = Repo.ls ~prefix merkle)
         prefixes
  in
  let same_history =
    match pairs with
    | [] -> true
    | _ ->
        let fhead = Option.get (Repo.head flat) in
        let mhead = Option.get (Repo.head merkle) in
        Repo.changed_since flat ~base:None = Repo.changed_since merkle ~base:None
        && Repo.changed_between flat ~base:None ~head:fhead
           = Repo.changed_between merkle ~base:None ~head:mhead
        && List.for_all
             (fun (fo, mo) ->
               Repo.changed_since flat ~base:(Some fo)
               = Repo.changed_since merkle ~base:(Some mo)
               && Repo.changed_between flat ~base:(Some fo) ~head:fhead
                  = Repo.changed_between merkle ~base:(Some mo) ~head:mhead
               && Repo.conflicts flat ~base:(Some fo) ~paths:universe
                  = Repo.conflicts merkle ~base:(Some mo) ~paths:universe
               && List.sort String.compare (Repo.changed_paths_of_commit flat fo)
                  = List.sort String.compare (Repo.changed_paths_of_commit merkle mo)
               && Repo.is_ancestor flat fo ~of_:fhead
                  = Repo.is_ancestor merkle mo ~of_:mhead
               && Repo.is_ancestor flat fhead ~of_:fo
                  = Repo.is_ancestor merkle mhead ~of_:mo
               && Repo.read_file ~rev:fo flat (List.hd universe)
                  = Repo.read_file ~rev:mo merkle (List.hd universe))
             pairs
  in
  let same_path_history =
    List.for_all
      (fun path ->
        List.map
          (fun (_, c) -> c.Store.message)
          (Repo.path_history flat path)
        = List.map (fun (_, c) -> c.Store.message) (Repo.path_history merkle path))
      universe
  in
  same_log && same_reads && same_ls && same_history && same_path_history

let backend_equivalence_property =
  QCheck2.Test.make ~name:"flat and merkle backends are observationally equivalent"
    ~count:200 gen_equiv_script
    (backends_agree ~prefixes:[ "a"; "a/"; "b/c" ])

(* One directory of up to 3 x width names, a few of them also
   directories, plus a subdirectory and a top-level file.  A commit
   writes or deletes up to 1.5 x width of them, so the directory
   crosses the width in both directions within a script. *)
let wide_universe =
  Array.of_list
    ((("top" :: List.init (3 * node_width) (Printf.sprintf "w/n%03d"))
     @ List.init 12 (Printf.sprintf "w/sub/m%02d"))
    @ [ "w/n005/x"; "w/n077/x"; "w/n077/y/z" ])

let gen_wide_changes write =
  QCheck2.Gen.(
    let content =
      if write then string_size ~gen:(char_range '0' '9') (pure 2) >|= Option.some
      else pure None
    in
    list_size (int_range 1 (3 * node_width / 2)) (pair (oneofa wide_universe) content))

let gen_wide_commit = QCheck2.Gen.(bool >>= gen_wide_changes)

let wide_equivalence_property =
  QCheck2.Test.make
    ~name:"flat and merkle backends agree across wide directories" ~count:60
    QCheck2.Gen.(list_size (int_range 1 10) gen_wide_commit)
    (backends_agree ~prefixes:[ "w/"; "w/n0"; "w/n07"; "w/n077/"; "w/sub/"; "t" ])

(* Property: the Merkle root is a function of the file map alone.  One
   commit of the final map, and a random wide history followed by the
   commit that turns it into that map, give the same root tree. *)
let canonical_root_property =
  QCheck2.Test.make
    ~name:"two histories that reach the same file map share a root tree" ~count:60
    QCheck2.Gen.(pair (gen_wide_changes true) (list_size (int_range 1 10) gen_wide_commit))
    (fun (final, history) ->
      let target = Hashtbl.create 64 in
      let final = applicable target final in
      let direct = Repo.create () in
      ignore (commit direct final);
      let replayed = Repo.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun changes ->
          match applicable model changes with
          | [] -> ()
          | changes -> ignore (commit replayed changes))
        history;
      let fixup =
        Hashtbl.fold
          (fun path data acc ->
            if Hashtbl.find_opt model path = Some data then acc else (path, Some data) :: acc)
          target
          (Hashtbl.fold
             (fun path _ acc -> if Hashtbl.mem target path then acc else (path, None) :: acc)
             model [])
      in
      if fixup <> [] then ignore (commit replayed fixup);
      Repo.ls replayed = Repo.ls direct && root_tree replayed = root_tree direct)

(* --- multirepo ------------------------------------------------------- *)

let multirepo_tests =
  [
    Alcotest.test_case "routing by longest prefix" `Quick (fun () ->
        let m = Multirepo.create ~partitions:[ "feed/"; "feed/ranker/"; "tao/" ] () in
        Alcotest.(check string) "feed" "feed/"
          (Repo.name (Multirepo.route m "feed/x.json"));
        Alcotest.(check string) "ranker" "feed/ranker/"
          (Repo.name (Multirepo.route m "feed/ranker/y.json"));
        Alcotest.(check string) "catch-all" "<root>"
          (Repo.name (Multirepo.route m "misc/z.json")));
    Alcotest.test_case "commit splits by partition" `Quick (fun () ->
        let m = Multirepo.create ~partitions:[ "feed/"; "tao/" ] () in
        let results =
          Multirepo.commit m ~author:"a" ~message:"m" ~timestamp:0.0
            [ "feed/a", Some "1"; "tao/b", Some "2"; "other/c", Some "3" ]
        in
        Alcotest.(check int) "3 partitions touched" 3 (List.length results);
        Alcotest.(check (option string)) "feed read" (Some "1")
          (Multirepo.read_file m "feed/a");
        Alcotest.(check (option string)) "tao read" (Some "2")
          (Multirepo.read_file m "tao/b");
        Alcotest.(check (option string)) "root read" (Some "3")
          (Multirepo.read_file m "other/c");
        Alcotest.(check int) "total files" 3 (Multirepo.file_count m));
    Alcotest.test_case "partitions commit independently" `Quick (fun () ->
        let m = Multirepo.create ~partitions:[ "feed/"; "tao/" ] () in
        ignore
          (Multirepo.commit m ~author:"a" ~message:"m" ~timestamp:0.0
             [ "feed/a", Some "1" ]);
        ignore
          (Multirepo.commit m ~author:"b" ~message:"m" ~timestamp:0.0
             [ "tao/b", Some "2" ]);
        let feed = Option.get (Multirepo.repo_of_prefix m "feed/") in
        let tao = Option.get (Multirepo.repo_of_prefix m "tao/") in
        Alcotest.(check int) "feed commits" 1 (Repo.commit_count feed);
        Alcotest.(check int) "tao commits" 1 (Repo.commit_count tao));
    Alcotest.test_case "backend selection applies to every partition" `Quick (fun () ->
        let m = Multirepo.create ~backend:Repo.Flat ~partitions:[ "feed/" ] () in
        List.iter
          (fun (_, repo) ->
            Alcotest.(check string) "flat" "flat" (Repo.backend_name (Repo.backend repo)))
          (Multirepo.partitions m));
  ]

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      diff_patch_property;
      diff_minimal_property;
      repo_model_property Repo.Flat;
      repo_model_property Repo.Merkle;
      backend_equivalence_property;
      wide_equivalence_property;
      canonical_root_property;
    ]

let () =
  (* [Alcotest.run] exits, so clean up in an exit hook. *)
  at_exit (fun () -> rm_rf test_root);
  Alcotest.run "cm_vcs"
    [
      "diff", diff_tests;
      "diff-size-guard", size_guard_tests;
      "store", store_tests;
      "repo(flat)", repo_tests Repo.Flat;
      "repo(merkle)", repo_tests Repo.Merkle;
      "merkle", merkle_tests;
      "multirepo", multirepo_tests;
      "properties", properties;
    ]
