(* Storage-plane performance: the flat cm_vcs backend (one tree object
   listing every file, rebuilt and re-hashed per commit — the paper's
   Figure-13 regime, whose row this bench prints) vs the Merkle backend
   (directory-sharded trees, head index, generation numbers, per-commit
   change records).

   For each backend x repo size we measure, on a three-level sharded
   namespace (configs/dXX/eXX/fXX/cfg_NNNNNN.json), and for the Merkle
   backend also on one directory holding every file
   (configs/cfg_NNNNNN.json):

   - mean wall-clock per 1-file and per 10-file commit;
   - changed_since over the last K commits (the tailer's poll);
   - store growth per commit (bytes newly hashed vs reused).

   The run gates the tentpole claims: over a 100x size sweep the flat
   backend's per-commit cost must degrade by an order of magnitude
   while the Merkle backend stays ~flat, and the bytes a Merkle commit
   hashes in one ever-wider directory must stay ~flat too (bounded
   node width; bounds in the gate list at the end of [run]).  It also
   measures the paper's §3.6
   remedy — an 8-way partitioned flat namespace — against a single
   Merkle repository and reports the estimated crossover size beyond
   which one Merkle repo beats the partitioned flat fleet.

   Results land in BENCH_vcs.json; --quick shrinks the sweep. *)

module Repo = Cm_vcs.Repo
module Store = Cm_vcs.Store

let quick = Render.quick
let sizes = if quick then [ 500; 5_000; 50_000 ] else [ 2_000; 20_000; 200_000 ]
let base_commits = if quick then 10 else 30
let k_window = 10 (* changed_since window, commits *)
let partitions = 8

(* Sharded: 32 x 32 x 32 dirs, so every directory stays small.  One
   directory: every file side by side, the layout where a Merkle node
   per directory would grow with the repository. *)
type layout = Sharded | One_dir

let layout_name = function Sharded -> "sharded" | One_dir -> "one-dir"

let path_of layout i =
  match layout with
  | Sharded ->
      Printf.sprintf "configs/d%02x/e%02x/f%02x/cfg_%06d.json" (i land 31)
        ((i lsr 5) land 31) ((i lsr 10) land 31) i
  | One_dir -> Printf.sprintf "configs/cfg_%06d.json" i

let seed_changes layout nfiles =
  List.init nfiles (fun i -> path_of layout i, Some (Printf.sprintf {|{"id":%d,"v":0}|} i))

let time f =
  let start = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. start

(* Per-commit means need a few milliseconds of measured work to be
   stable: scale repetitions up where commits are cheap (small flat
   repos; Merkle at any size). *)
let ncommits backend nfiles =
  match backend with
  | Repo.Merkle -> 500
  | Repo.Flat -> max base_commits (200_000 / nfiles)

type row = {
  r_backend : string;
  r_layout : layout;
  r_files : int;
  r_commit1_s : float;
  r_commit10_s : float;
  r_changed_since_s : float;
  r_objects : int;
  r_bytes : int;
  r_hashed_per_commit : int;
}

let measure layout backend nfiles =
  let path_of = path_of layout in
  let repo = Repo.create ~backend () in
  let store = Repo.store repo in
  ignore
    (Repo.commit repo ~author:"seed" ~message:"import" ~timestamp:0.0
       (seed_changes layout nfiles));
  let n = ncommits backend nfiles in
  (* Warm up and settle the import's garbage so a major collection
     triggered by seeding doesn't land inside the timed loop. *)
  for i = 1 to 3 do
    ignore
      (Repo.commit repo ~author:"warm" ~message:"warmup" ~timestamp:(float_of_int (-i))
         [ path_of (i * 97 mod nfiles), Some (Printf.sprintf {|{"w":%d}|} i) ])
  done;
  Gc.full_major ();
  let bytes0 = Store.total_bytes store in
  let commit1 =
    time (fun () ->
        for i = 1 to n do
          ignore
            (Repo.commit repo ~author:"bench" ~message:"update" ~timestamp:(float_of_int i)
               [ path_of (i * 37 mod nfiles), Some (Printf.sprintf {|{"v":%d}|} i) ])
        done)
    /. float_of_int n
  in
  let hashed_per_commit = (Store.total_bytes store - bytes0) / n in
  Gc.full_major ();
  let commit10 =
    time (fun () ->
        for i = 1 to n do
          ignore
            (Repo.commit repo ~author:"bench" ~message:"update10"
               ~timestamp:(float_of_int (n + i))
               (List.init 10 (fun j ->
                    path_of (((i * 131) + (j * 17)) mod nfiles),
                    Some (Printf.sprintf {|{"v":%d,"j":%d}|} i j))))
        done)
    /. float_of_int n
  in
  (* The tailer's poll: what changed in the last K commits? *)
  let base =
    match List.rev (Repo.log ~limit:(k_window + 1) repo) with
    | (oid, _) :: _ -> Some oid
    | [] -> None
  in
  let reps = 20 in
  Gc.full_major ();
  let changed_since =
    time (fun () ->
        for _ = 1 to reps do
          ignore (Repo.changed_since repo ~base)
        done)
    /. float_of_int reps
  in
  {
    r_backend = Repo.backend_name backend;
    r_layout = layout;
    r_files = nfiles;
    r_commit1_s = commit1;
    r_commit10_s = commit10;
    r_changed_since_s = changed_since;
    r_objects = Store.object_count store;
    r_bytes = Store.total_bytes store;
    r_hashed_per_commit = hashed_per_commit;
  }

(* §3.6 remedy vs the Merkle tentpole: per-commit cost of an 8-way
   partitioned flat namespace at the largest sweep size. *)
let measure_partitioned_flat nfiles =
  let multi =
    Cm_vcs.Multirepo.create ~backend:Repo.Flat
      ~partitions:(List.init partitions (fun i -> Printf.sprintf "p%d/" i))
      ()
  in
  let changes =
    List.init nfiles (fun i ->
        Printf.sprintf "p%d/cfg_%06d.json" (i mod partitions) i,
        Some (Printf.sprintf {|{"id":%d}|} i))
  in
  ignore (Cm_vcs.Multirepo.commit multi ~author:"seed" ~message:"import" ~timestamp:0.0 changes);
  let n = base_commits in
  time (fun () ->
      for i = 1 to n do
        ignore
          (Cm_vcs.Multirepo.commit multi ~author:"bench" ~message:"update"
             ~timestamp:(float_of_int i)
             [ Printf.sprintf "p%d/cfg_%06d.json" (i mod partitions) (i * 37 mod nfiles),
               Some (Printf.sprintf {|{"v":%d}|} i) ])
      done)
  /. float_of_int n

let find_row ?(layout = Sharded) rows backend files =
  List.find
    (fun r -> r.r_backend = backend && r.r_layout = layout && r.r_files = files)
    rows

let json_of_row r =
  Cm_json.Value.(
    Assoc
      [
        "backend", String r.r_backend;
        "layout", String (layout_name r.r_layout);
        "files", Int r.r_files;
        "commit_1_s", Float r.r_commit1_s;
        "commit_10_s", Float r.r_commit10_s;
        "changed_since_s", Float r.r_changed_since_s;
        "objects", Int r.r_objects;
        "bytes", Int r.r_bytes;
        "hashed_per_commit_bytes", Int r.r_hashed_per_commit;
      ])

let run () =
  Render.section "vcs"
    "Storage plane: flat vs Merkle commit cost across repository sizes";
  Render.note "sweep: %s files, %d+ commits per cell%s"
    (String.concat "/" (List.map string_of_int sizes))
    base_commits
    (if quick then " (quick)" else "");
  let rows =
    List.concat_map
      (fun (layout, backend) ->
        List.map (fun nfiles -> measure layout backend nfiles) sizes)
      [ Sharded, Repo.Flat; Sharded, Repo.Merkle; One_dir, Repo.Merkle ]
  in
  Render.table
    ~header:
      [ "backend"; "layout"; "files"; "commit 1f"; "commit 10f"; "changed_since";
        "objects"; "hashed/commit" ]
    (List.map
       (fun r ->
         [
           r.r_backend;
           layout_name r.r_layout;
           string_of_int r.r_files;
           Printf.sprintf "%.2fms" (1000.0 *. r.r_commit1_s);
           Printf.sprintf "%.2fms" (1000.0 *. r.r_commit10_s);
           Printf.sprintf "%.3fms" (1000.0 *. r.r_changed_since_s);
           string_of_int r.r_objects;
           Render.bytes r.r_hashed_per_commit;
         ])
       rows);
  let smallest = List.hd sizes and largest = List.nth sizes (List.length sizes - 1) in
  (* The storage-plane cost a writer sees: one commit plus the
     tailer's changed_since scan. *)
  let cost r = r.r_commit1_s +. r.r_changed_since_s in
  let slowdown backend =
    cost (find_row rows backend largest)
    /. Float.max 1e-9 (cost (find_row rows backend smallest))
  in
  let flat_slowdown = slowdown "flat" in
  let merkle_slowdown = slowdown "merkle" in
  Render.kv "flat commit+scan slowdown over the sweep"
    (Printf.sprintf "%.1fx" flat_slowdown);
  Render.kv "merkle commit+scan slowdown over the sweep"
    (Printf.sprintf "%.2fx" merkle_slowdown);
  (* Deterministic: the bytes one 1-file commit adds in a single
     directory of [largest] files over those it adds at [smallest]. *)
  let hashed files = (find_row ~layout:One_dir rows "merkle" files).r_hashed_per_commit in
  let one_dir_hashed_growth =
    float_of_int (hashed largest) /. float_of_int (max 1 (hashed smallest))
  in
  Render.kv "merkle one-directory hashed bytes growth over the sweep"
    (Printf.sprintf "%.2fx" one_dir_hashed_growth);

  (* Crossover vs the paper's partitioning remedy.  Flat per-commit
     cost is ~linear in files: cost(n) ~ slope * n.  P partitions cut
     it to slope * n / P, so a single Merkle repo (constant cost m)
     wins beyond n* = m * P / slope. *)
  let flat_partitioned_s = measure_partitioned_flat largest in
  let merkle_commit_s = (find_row rows "merkle" largest).r_commit1_s in
  let slope = (find_row rows "flat" largest).r_commit1_s /. float_of_int largest in
  let crossover =
    int_of_float (merkle_commit_s *. float_of_int partitions /. Float.max 1e-12 slope)
  in
  Render.table
    ~header:[ Printf.sprintf "setup (%d files)" largest; "commit"; "commits/min" ]
    [
      [ "flat, single repo";
        Printf.sprintf "%.2fms" (1000.0 *. (find_row rows "flat" largest).r_commit1_s);
        Printf.sprintf "%.0f" (60.0 /. (find_row rows "flat" largest).r_commit1_s) ];
      [ Printf.sprintf "flat, %d partitions" partitions;
        Printf.sprintf "%.2fms" (1000.0 *. flat_partitioned_s);
        Printf.sprintf "%.0f" (60.0 /. flat_partitioned_s) ];
      [ "merkle, single repo";
        Printf.sprintf "%.2fms" (1000.0 *. merkle_commit_s);
        Printf.sprintf "%.0f" (60.0 /. merkle_commit_s) ];
    ];
  Render.kv "estimated crossover"
    (Printf.sprintf
       "one merkle repo beats %d flat partitions beyond ~%d files" partitions crossover);
  (* Paper Figure 13 and §3.6 read off the flat rows: per-commit cost
     grows with the file count, and partitioning the namespace is the
     paper's remedy. *)
  let flat_per_min files = 60.0 /. (find_row rows "flat" files).r_commit1_s in
  Render.table
    ~header:[ "paper claim"; "paper"; "measured (flat backend)" ]
    [
      [ "fig13: throughput falls as the repo grows";
        "~250 -> ~50 commits/min toward 1M files";
        Printf.sprintf "%.0f -> %.0f commits/min, %d -> %d files" (flat_per_min smallest)
          (flat_per_min largest) smallest largest ];
      [ "§3.6 remedy: partition the namespace"; "multiple smaller repositories";
        Printf.sprintf "%d partitions: %.0fx one repo's commits/min at %d files" partitions
          ((find_row rows "flat" largest).r_commit1_s /. flat_partitioned_s) largest ];
    ];
  let doc =
    Cm_json.Value.(
      Assoc
        [
          "experiment", String "storage-plane";
          "sizes", List (List.map (fun n -> Int n) sizes);
          "rows", List (List.map json_of_row rows);
          "flat_slowdown", Float flat_slowdown;
          "merkle_slowdown", Float merkle_slowdown;
          "one_dir_hashed_growth", Float one_dir_hashed_growth;
          "partitions", Int partitions;
          "flat_partitioned_commit_s", Float flat_partitioned_s;
          "merkle_commit_s", Float merkle_commit_s;
          "crossover_files", Int crossover;
        ])
  in
  Render.write_json ~file:"BENCH_vcs.json" doc
    ~gates:
      [
        Render.gate "flat_slowdown" flat_slowdown Render.Ge 10.0;
        Render.gate "merkle_slowdown" merkle_slowdown Render.Le 4.0;
        Render.gate "one_dir_hashed_growth" one_dir_hashed_growth Render.Le 2.0;
      ];
  Render.note "wrote BENCH_vcs.json"
