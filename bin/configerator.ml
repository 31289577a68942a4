(* The `configerator` command-line tool: the developer-facing entry
   point an engineer uses on a checkout of the config repository
   (paper Figure 3, "Development Server").

     configerator check    --tree DIR             # compile everything, report errors
     configerator compile  --tree DIR -o OUT [P]  # write JSON artifacts
     configerator verify   --tree DIR [--gk P]    # correctness plane: static
                                                  # checks + consumer config tests
     configerator deps     --tree DIR PATH        # imports + dependents of one file
     configerator affected --tree DIR PATH...     # configs to recompile after edits
     configerator gk-check PROJECT.json --user-id N [--employee] ...
                                                  # evaluate a Gatekeeper project
     configerator whereis  --tree DIR PATH        # trace a change through a
                                                  # simulated fleet
     configerator generations --dir PACKDIR       # generation log of a pack repo
     configerator rollback --dir PACKDIR --generation N
                                                  # O(1) whole-tree rollback
     configerator gc --dir PACKDIR --keep N       # mark-and-sweep + compaction *)

open Cmdliner

(* --- loading a tree from disk ---------------------------------------- *)

(* Directory links are followed, but each directory (by device and
   inode) is entered once, so a link cycle cannot recurse forever. *)
let walk root =
  let seen = Hashtbl.create 64 in
  let rec go dir prefix acc =
    let { Unix.st_dev; st_ino; _ } = Unix.stat dir in
    if Hashtbl.mem seen (st_dev, st_ino) then acc
    else begin
      Hashtbl.add seen (st_dev, st_ino) ();
      Array.fold_left
        (fun acc entry ->
          let full = Filename.concat dir entry in
          let rel = if prefix = "" then entry else prefix ^ "/" ^ entry in
          if Sys.is_directory full then go full rel acc else (rel, full) :: acc)
        acc (Sys.readdir dir)
    end
  in
  go root "" []

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  data

let load_tree dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "%s is not a directory" dir)
  else
    let tree = Core.Source_tree.create () in
    match
      List.iter
        (fun (rel, full) -> Core.Source_tree.write tree rel (read_file full))
        (walk dir)
    with
    | () -> Ok tree
    | exception Sys_error message -> Error message
    | exception Unix.Unix_error (e, _, path) ->
        Error (Printf.sprintf "%s: %s" path (Unix.error_message e))

let tree_arg =
  let doc = "Directory holding the config sources (.cconf/.cinc/.thrift/...)." in
  Arg.(value & opt string "." & info [ "tree"; "t" ] ~docv:"DIR" ~doc)

let jobs_arg =
  let doc =
    "Compile and verify across $(docv) domains (0 = one per core, 1 = \
     sequential), capped at the host's cores.  Output is identical at any \
     setting; only wall-clock changes."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let pool_of_jobs jobs =
  let domains = if jobs = 0 then Cm_parallel.Pool.recommended_domains () else jobs in
  Cm_parallel.Pool.create ~domains ()

(* --- check / compile -------------------------------------------------- *)

let print_errors errors =
  List.iter (fun e -> Printf.eprintf "error: %s\n" (Format.asprintf "%a" Core.Compiler.pp_error e)) errors

let run_check tree_dir changed jobs =
  match load_tree tree_dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok tree ->
      let pool = pool_of_jobs jobs in
      let compiler = Core.Compiler.create tree in
      let compiled, errors =
        match changed with
        | [] -> Core.Compiler.compile_all ~pool compiler
        | changed -> Core.Compiler.compile_affected ~pool compiler ~changed
      in
      Printf.printf "%d source files, %d configs compiled, %d errors\n"
        (Core.Source_tree.count tree) (List.length compiled) (List.length errors);
      print_errors errors;
      if errors = [] then 0 else 1

let check_cmd =
  let doc =
    "Compile configs and report errors.  With $(b,--changed), compile only \
     the cone affected by the given edited files instead of the whole tree."
  in
  let changed =
    Arg.(
      value
      & opt_all string []
      & info [ "changed"; "c" ] ~docv:"PATH"
          ~doc:"Edited source path (repeatable); restricts checking to its affected cone.")
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run_check $ tree_arg $ changed $ jobs_arg)

let run_compile tree_dir out_dir paths pretty =
  match load_tree tree_dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok tree -> (
      let compiler = Core.Compiler.create tree in
      let result =
        match paths with
        | [] -> Core.Compiler.compile_all compiler
        | _ -> Core.Compiler.compile_targets compiler paths
      in
      match result with
      | _, (_ :: _ as errors) ->
          print_errors errors;
          1
      | compiled, [] ->
          List.iter
            (fun c ->
              let out_path = Filename.concat out_dir c.Core.Compiler.artifact_path in
              let rec mkdirs d =
                if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
                  mkdirs (Filename.dirname d);
                  Sys.mkdir d 0o755
                end
              in
              mkdirs (Filename.dirname out_path);
              let oc = open_out out_path in
              output_string oc
                (if pretty then Cm_json.Value.to_pretty_string c.Core.Compiler.json
                 else c.Core.Compiler.json_text);
              output_char oc '\n';
              close_out oc;
              Printf.printf "%s -> %s\n" c.Core.Compiler.config_path out_path)
            compiled;
          0)

let compile_cmd =
  let doc = "Compile configs and write the JSON artifacts." in
  let out =
    Arg.(value & opt string "_artifacts" & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let pretty = Arg.(value & flag & info [ "pretty" ] ~doc:"Pretty-print the JSON.") in
  let paths = Arg.(value & pos_all string [] & info [] ~docv:"PATH") in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const run_compile $ tree_arg $ out $ paths $ pretty)

(* --- deps / affected --------------------------------------------------- *)

let with_depgraph tree_dir f =
  match load_tree tree_dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok tree -> f tree (Core.Depgraph.of_tree tree)

let run_deps tree_dir path =
  with_depgraph tree_dir (fun tree dep ->
      if not (Core.Source_tree.mem tree path) then begin
        Printf.eprintf "error: no such file %s\n" path;
        1
      end
      else begin
        Printf.printf "imports:\n";
        List.iter (Printf.printf "  %s\n") (Core.Depgraph.transitive_deps dep path);
        Printf.printf "imported by:\n";
        List.iter (Printf.printf "  %s\n") (Core.Depgraph.dependents dep path);
        0
      end)

let deps_cmd =
  let doc = "Show the import closure and the direct importers of a file." in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH") in
  Cmd.v (Cmd.info "deps" ~doc) Term.(const run_deps $ tree_arg $ path)

let run_affected tree_dir paths =
  with_depgraph tree_dir (fun _ dep ->
      List.iter (Printf.printf "%s\n") (Core.Depgraph.affected_configs dep paths);
      0)

let affected_cmd =
  let doc = "List every config that must be recompiled when the given files change." in
  let paths = Arg.(non_empty & pos_all string [] & info [] ~docv:"PATH") in
  Cmd.v (Cmd.info "affected" ~doc) Term.(const run_affected $ tree_arg $ paths)

(* --- verify ------------------------------------------------------------ *)

(* The correctness plane, on a plain checkout: compile (everything or
   an affected cone), then run the same registry the pipeline's verify
   stage uses — cross-artifact static checks plus any consumer config
   tests registered via --gk/--sitevar/--mobile — and print one
   verdict per check, repairs included. *)

let run_verify tree_dir changed gk_prefixes sitevar_prefixes mobile_prefixes as_json jobs =
  match load_tree tree_dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok tree ->
      let pool = pool_of_jobs jobs in
      let compiler = Core.Compiler.create tree in
      let compiled, errors =
        match changed with
        | [] -> Core.Compiler.compile_all ~pool compiler
        | changed -> Core.Compiler.compile_affected ~pool compiler ~changed
      in
      print_errors errors;
      if errors <> [] then 1
      else begin
        let registry = Cm_verify.Verify.standard () in
        (* A small panel of sample users exercises sticky sampling,
           employee gating and country restraints. *)
        let users =
          [
            Cm_gatekeeper.User.make 7L;
            Cm_gatekeeper.User.make ~employee:true 42L;
            Cm_gatekeeper.User.make ~country:"BR" ~device_model:"mobile" 1000L;
          ]
        in
        List.iter
          (fun prefix ->
            Cm_verify.Verify.register_test registry
              ~name:(Printf.sprintf "gk-project[%s]" prefix)
              ~prefix
              (Cm_verify.Consumers.gatekeeper_project ~users ()))
          gk_prefixes;
        List.iter
          (fun prefix ->
            Cm_verify.Verify.register_test registry
              ~name:(Printf.sprintf "sitevar-reader[%s]" prefix)
              ~prefix
              (Cm_verify.Consumers.sitevar_reader ()))
          sitevar_prefixes;
        List.iter
          (fun prefix ->
            Cm_verify.Verify.register_test registry
              ~name:(Printf.sprintf "mobileconfig[%s]" prefix)
              ~prefix
              (Cm_verify.Consumers.mobileconfig_translation ()))
          mobile_prefixes;
        let input =
          {
            Core.Pipeline.verify_changes = List.map (fun p -> p, "") changed;
            verify_compiled = compiled;
            verify_tree = tree;
            verify_depgraph = Core.Compiler.depgraph compiler;
            verify_repo = Cm_vcs.Repo.create ();
            verify_validators = Core.Compiler.validators compiler;
            verify_pool = Some pool;
          }
        in
        let verdicts = Cm_verify.Verify.run registry input in
        if as_json then
          print_endline
            (Cm_json.Value.to_pretty_string
               (Cm_json.Value.List (List.map Core.Defense.verdict_to_json verdicts)))
        else begin
          List.iter
            (fun v ->
              Printf.printf "%s\n" (Format.asprintf "@[<v>%a@]" Core.Defense.pp_verdict v))
            verdicts;
          let failed = List.length (Core.Defense.failures verdicts) in
          Printf.printf "%d configs, %d verdicts, %d failed\n" (List.length compiled)
            (List.length verdicts) failed
        end;
        if Core.Defense.all_passed verdicts then 0 else 1
      end

let verify_cmd =
  let doc =
    "Run the correctness plane over a checkout: cross-artifact static checks \
     (dependency cycles, shadowed exports, artifact collisions) plus consumer \
     config tests for the prefixes named by $(b,--gk), $(b,--sitevar) and \
     $(b,--mobile).  Prints one verdict per check — failing verdicts carry a \
     repair suggestion when one is found — and exits non-zero on any failure."
  in
  let changed =
    Arg.(
      value
      & opt_all string []
      & info [ "changed"; "c" ] ~docv:"PATH"
          ~doc:"Edited source path (repeatable); verifies only its affected cone.")
  in
  let gk =
    Arg.(
      value
      & opt_all string []
      & info [ "gk" ] ~docv:"PREFIX"
          ~doc:"Treat configs under PREFIX as Gatekeeper projects (repeatable).")
  in
  let sitevar =
    Arg.(
      value
      & opt_all string []
      & info [ "sitevar" ] ~docv:"PREFIX"
          ~doc:"Run the sitevar-reader test over configs under PREFIX (repeatable).")
  in
  let mobile =
    Arg.(
      value
      & opt_all string []
      & info [ "mobile" ] ~docv:"PREFIX"
          ~doc:"Treat configs under PREFIX as MobileConfig translations (repeatable).")
  in
  let as_json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the verdicts as JSON.") in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const run_verify $ tree_arg $ changed $ gk $ sitevar $ mobile $ as_json $ jobs_arg)

(* --- gk-check ----------------------------------------------------------- *)

let run_gk_check project_file user_id employee country device =
  match Cm_gatekeeper.Project.of_string (read_file project_file) with
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      1
  | Ok project ->
      let user =
        Cm_gatekeeper.User.make ~employee ~country ~device_model:device
          (Int64.of_int user_id)
      in
      let ctx = { Cm_gatekeeper.Restraint.laser = None } in
      let pass = Cm_gatekeeper.Project.check ctx project user in
      Printf.printf "%s\n" (if pass then "PASS" else "FAIL");
      if pass then 0 else 1

let gk_check_cmd =
  let doc = "Evaluate a Gatekeeper project JSON against a user." in
  let project = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROJECT.json") in
  let user_id =
    Arg.(value & opt int 42 & info [ "user-id" ] ~docv:"N" ~doc:"User id (sticky sampling key).")
  in
  let employee = Arg.(value & flag & info [ "employee" ] ~doc:"User is an employee.") in
  let country =
    Arg.(value & opt string "US" & info [ "country" ] ~docv:"CC" ~doc:"User country code.")
  in
  let device =
    Arg.(value & opt string "generic" & info [ "device" ] ~docv:"MODEL" ~doc:"Device model.")
  in
  Cmd.v
    (Cmd.info "gk-check" ~doc)
    Term.(const run_gk_check $ project $ user_id $ employee $ country $ device)

(* --- whereis ------------------------------------------------------------ *)

(* "Where is my config?": compile one config, push it through a
   simulated Zeus fleet with tracing and propagation tracking on, and
   report how the change spreads — a coverage timeline, the trace
   waterfall, and the per-hop latency table. *)

let run_whereis tree_dir config_path regions clusters nodes =
  match load_tree tree_dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok tree -> (
      let compiler = Core.Compiler.create tree in
      match Core.Compiler.compile compiler config_path with
      | Error e ->
          Printf.eprintf "error: %s\n" (Format.asprintf "%a" Core.Compiler.pp_error e);
          1
      | Ok compiled ->
          let module Engine = Cm_sim.Engine in
          let module Tracer = Cm_trace.Tracer in
          let module Propagation = Cm_trace.Propagation in
          let engine = Engine.create () in
          let topo =
            Cm_sim.Topology.create ~regions ~clusters_per_region:clusters
              ~nodes_per_cluster:nodes
          in
          let net = Cm_sim.Net.create engine topo in
          let tracer = Tracer.create ~now:(fun () -> Engine.now engine) () in
          Cm_sim.Net.set_tracer net tracer;
          let prop = Propagation.create ~now:(fun () -> Engine.now engine) () in
          let zeus = Cm_zeus.Service.create net in
          Cm_zeus.Service.set_propagation zeus prop;
          let artifact = compiled.Core.Compiler.artifact_path in
          Array.iter
            (fun (n : Cm_sim.Topology.node) ->
              let proxy = Cm_zeus.Service.proxy_on zeus n.id in
              Cm_zeus.Service.subscribe proxy ~path:artifact (fun ~zxid:_ _ -> ()))
            (Cm_sim.Topology.nodes topo);
          (* Let every proxy register its watch before the write. *)
          Engine.run_for engine 1.0;
          let ctx = Tracer.new_trace tracer ~name:("whereis:" ^ artifact) in
          Cm_zeus.Service.write ~digest:compiled.Core.Compiler.digest ~ctx zeus
            ~path:artifact ~data:compiled.Core.Compiler.json_text;
          Printf.printf "config   %s\n" config_path;
          Printf.printf "artifact %s (digest %s, %d bytes)\n" artifact
            compiled.Core.Compiler.digest
            (String.length compiled.Core.Compiler.json_text);
          Printf.printf "fleet    %d regions x %d clusters x %d nodes = %d proxies\n\n"
            regions clusters nodes
            (Cm_sim.Topology.node_count topo);
          Printf.printf "coverage timeline (fraction of proxies holding the new version):\n";
          let last = ref (-1.0) in
          let sample () =
            match Propagation.latest_zxid prop ~path:artifact with
            | None -> ()
            | Some zxid ->
                let c = Propagation.coverage prop ~path:artifact ~zxid () in
                if c > !last then begin
                  last := c;
                  Printf.printf "  t=%8.4fs  %5.1f%%  (%d/%d)\n" (Engine.now engine)
                    (100.0 *. c)
                    (int_of_float
                       (c *. float_of_int (Propagation.target_count prop ~path:artifact ())
                        +. 0.5))
                    (Propagation.target_count prop ~path:artifact ())
                end
          in
          let steps = 3000 in
          let dt = 0.01 in
          let i = ref 0 in
          while !last < 1.0 && !i < steps do
            Engine.run_for engine dt;
            sample ();
            incr i
          done;
          Engine.run_for engine 0.5;
          sample ();
          Printf.printf "\n%s\n" (Tracer.waterfall tracer (Tracer.trace_id ctx));
          Printf.printf "\n%s\n" (Tracer.hop_report tracer);
          let final =
            match Propagation.latest_zxid prop ~path:artifact with
            | None -> 0.0
            | Some zxid -> Propagation.coverage prop ~path:artifact ~zxid ()
          in
          Printf.printf "\nfinal coverage: %.1f%% of %d proxies" (100.0 *. final)
            (Propagation.target_count prop ~path:artifact ());
          (if Propagation.latency_count prop > 0 then
             Printf.printf "; commit->proxy p50 %.1fms, max %.1fms"
               (1000.0 *. Propagation.latency_percentile prop 0.50)
               (1000.0 *. Propagation.latency_percentile prop 1.0));
          print_newline ();
          if final >= 1.0 then 0 else 1)

(* --- generations / rollback / gc --------------------------------------- *)

(* Operate on an existing pack-backed repository directory: reopening
   it *is* crash recovery (segment scan + generation-log replay), so
   these verbs double as the recovery UI.  A directory without a
   pack-*.seg segment is refused before the store is opened, since
   opening one creates its first segment. *)

let open_pack_repo dir =
  let is_segment name =
    String.starts_with ~prefix:"pack-" name && Filename.check_suffix name ".seg"
  in
  if not (Sys.file_exists dir && Sys.is_directory dir
          && Array.exists is_segment (Sys.readdir dir))
  then Error (Printf.sprintf "%s is not a pack directory (no pack-*.seg)" dir)
  else
    let store = Cm_vcs.Store.create ~backend:(Cm_vcs.Store.pack_backend dir) () in
    Ok (Cm_vcs.Repo.of_store store)

let pack_dir_arg =
  let doc = "Pack-backed repository directory (as written by --store pack)." in
  Arg.(value & opt string "_pack" & info [ "dir"; "d" ] ~docv:"DIR" ~doc)

let json_flag = Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON.")

let gen_to_json (g : Cm_vcs.Store.gen) =
  Cm_json.Value.obj
    [
      "generation", Cm_json.Value.Int g.Cm_vcs.Store.gen_num;
      "root", Cm_json.Value.String g.Cm_vcs.Store.gen_root;
      "time", Cm_json.Value.Float g.Cm_vcs.Store.gen_time;
      "message", Cm_json.Value.String g.Cm_vcs.Store.gen_message;
    ]

let run_generations dir limit as_json =
  match open_pack_repo dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok repo ->
      let store = Cm_vcs.Repo.store repo in
      let gens = List.rev (Cm_vcs.Store.generations store) in
      let shown = match limit with None -> gens | Some n -> List.filteri (fun i _ -> i < n) gens in
      (if as_json then
         print_endline
           (Cm_json.Value.to_pretty_string
              (Cm_json.Value.obj
                 [
                   "last", Cm_json.Value.Int (Cm_vcs.Store.last_generation store);
                   "durable", Cm_json.Value.Int (Cm_vcs.Store.durable_generation store);
                   "dropped_on_recovery", Cm_json.Value.Int (Cm_vcs.Repo.recovery_dropped repo);
                   "generations", Cm_json.Value.List (List.map gen_to_json shown);
                 ]))
       else begin
         Printf.printf "%-6s %-34s %-14s %s\n" "gen" "root" "time" "message";
         List.iter
           (fun (g : Cm_vcs.Store.gen) ->
             Printf.printf "%-6d %-34s %14.3f %s\n" g.Cm_vcs.Store.gen_num
               g.Cm_vcs.Store.gen_root g.Cm_vcs.Store.gen_time g.Cm_vcs.Store.gen_message)
           shown;
         Printf.printf "%d generations (durable through %d)" (List.length gens)
           (Cm_vcs.Store.durable_generation store);
         if Cm_vcs.Repo.recovery_dropped repo > 0 then
           Printf.printf "; %d dropped as incomplete on recovery"
             (Cm_vcs.Repo.recovery_dropped repo);
         print_newline ()
       end);
      Cm_vcs.Store.close store;
      0

let generations_cmd =
  let doc =
    "List the generation log of a pack-backed repository: every landed commit \
     pins its root as a numbered generation, so this is the queryable linear \
     history of landed states (and the rollback targets)."
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit"; "n" ] ~docv:"N" ~doc:"Show only the newest N generations.")
  in
  Cmd.v (Cmd.info "generations" ~doc)
    Term.(const run_generations $ pack_dir_arg $ limit $ json_flag)

let run_rollback dir generation as_json =
  match open_pack_repo dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok repo -> (
      let store = Cm_vcs.Repo.store repo in
      let start = Unix.gettimeofday () in
      match
        Cm_vcs.Repo.rollback repo ~generation ~timestamp:(Unix.gettimeofday ())
      with
      | exception Invalid_argument message ->
          Printf.eprintf "error: %s\n" message;
          Cm_vcs.Store.close store;
          1
      | pinned ->
          let elapsed_ms = 1000.0 *. (Unix.gettimeofday () -. start) in
          (if as_json then
             print_endline
               (Cm_json.Value.to_pretty_string
                  (Cm_json.Value.obj
                     [
                       "rolled_back_to", Cm_json.Value.Int generation;
                       "pinned_as", Cm_json.Value.Int pinned;
                       "head",
                       (match Cm_vcs.Repo.head repo with
                        | Some oid -> Cm_json.Value.String oid
                        | None -> Cm_json.Value.Null);
                       "files", Cm_json.Value.Int (Cm_vcs.Repo.file_count repo);
                       "elapsed_ms", Cm_json.Value.Float elapsed_ms;
                     ]))
           else
             Printf.printf
               "rolled back to generation %d (pinned as generation %d): %d files at head, %.1fms\n"
               generation pinned (Cm_vcs.Repo.file_count repo) elapsed_ms);
          Cm_vcs.Store.close store;
          0)

let rollback_cmd =
  let doc =
    "Atomic whole-tree rollback of a pack-backed repository to a pinned \
     generation.  O(1) at the store however long the history: one pin record \
     is appended and fsynced; no object is copied or rewritten.  The rollback \
     itself lands as a new generation, so it is visible in $(b,generations) \
     and is itself rollback-able."
  in
  let generation =
    Arg.(
      required
      & opt (some int) None
      & info [ "generation"; "g" ] ~docv:"N" ~doc:"Target generation number.")
  in
  Cmd.v (Cmd.info "rollback" ~doc)
    Term.(const run_rollback $ pack_dir_arg $ generation $ json_flag)

let run_gc dir keep as_json =
  match open_pack_repo dir with
  | Error message ->
      Printf.eprintf "error: %s\n" message;
      1
  | Ok repo ->
      let store = Cm_vcs.Repo.store repo in
      let stats = Cm_vcs.Repo.gc repo ~keep_last:keep in
      let module P = Cm_pack.Pack in
      let pack = Option.get (Cm_vcs.Store.pack_handle store) in
      (if as_json then
         print_endline
           (Cm_json.Value.to_pretty_string
              (Cm_json.Value.obj
                 [
                   "live_objects", Cm_json.Value.Int stats.Cm_vcs.Store.gc_live;
                   "swept_objects", Cm_json.Value.Int stats.Cm_vcs.Store.gc_swept;
                   "swept_bytes", Cm_json.Value.Int stats.Cm_vcs.Store.gc_swept_bytes;
                   "dropped_generations",
                   Cm_json.Value.Int stats.Cm_vcs.Store.gc_dropped_generations;
                   "segments", Cm_json.Value.Int (P.segment_count pack);
                   "file_bytes", Cm_json.Value.Int (P.file_bytes pack);
                   "dead_bytes", Cm_json.Value.Int (P.dead_bytes pack);
                   "reclaimed_bytes", Cm_json.Value.Int (P.gc_reclaimed_bytes pack);
                 ]))
       else begin
         Printf.printf "swept %d objects (%d bytes), dropped %d generations\n"
           stats.Cm_vcs.Store.gc_swept stats.Cm_vcs.Store.gc_swept_bytes
           stats.Cm_vcs.Store.gc_dropped_generations;
         Printf.printf "live: %d objects in %d segments, %d file bytes (%d dead)\n"
           stats.Cm_vcs.Store.gc_live (P.segment_count pack) (P.file_bytes pack)
           (P.dead_bytes pack);
         Printf.printf "reclaimed so far: %d bytes\n" (P.gc_reclaimed_bytes pack)
       end);
      Cm_vcs.Store.close store;
      0

let gc_cmd =
  let doc =
    "Mark-and-sweep garbage collection of a pack-backed repository: keep the \
     newest $(b,--keep) generations, sweep every object unreachable from their \
     roots, and compact segments whose dead fraction crosses the threshold \
     (copy-live-forward, manifest swap, delete)."
  in
  let keep =
    Arg.(
      value & opt int 10
      & info [ "keep"; "k" ] ~docv:"N" ~doc:"Generations to keep (newest N).")
  in
  Cmd.v (Cmd.info "gc" ~doc) Term.(const run_gc $ pack_dir_arg $ keep $ json_flag)

let whereis_cmd =
  let doc =
    "Trace a config change through a simulated fleet: compile the config, \
     commit it to Zeus with tracing on, and report the propagation \
     timeline, span waterfall and per-hop latencies."
  in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH") in
  let regions =
    Arg.(value & opt int 2 & info [ "regions" ] ~docv:"N" ~doc:"Simulated regions.")
  in
  let clusters =
    Arg.(value & opt int 2 & info [ "clusters" ] ~docv:"N" ~doc:"Clusters per region.")
  in
  let nodes =
    Arg.(value & opt int 8 & info [ "nodes" ] ~docv:"N" ~doc:"Servers per cluster.")
  in
  Cmd.v (Cmd.info "whereis" ~doc)
    Term.(const run_whereis $ tree_arg $ path $ regions $ clusters $ nodes)

let () =
  let doc = "Configuration-as-code toolchain (SOSP'15 reproduction)." in
  let info = Cmd.info "configerator" ~version:"1.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            check_cmd;
            compile_cmd;
            verify_cmd;
            deps_cmd;
            affected_cmd;
            gk_check_cmd;
            whereis_cmd;
            generations_cmd;
            rollback_cmd;
            gc_cmd;
          ]))
