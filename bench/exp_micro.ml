(* Bechamel microbenchmarks of the hot paths: one Test.make per
   operation, all analyzed with OLS over the monotonic clock. *)

open Bechamel

let job_thrift =
  "enum JobKind { BATCH = 0, SERVICE = 1 }\n\
   struct Job { 1: required string name; 2: optional i32 memory_mb = 1024;\n\
   3: list<string> args; 4: JobKind kind = JobKind.SERVICE; }"

let figure2_tree () =
  Core.Source_tree.of_alist
    [
      "schemas/job.thrift", job_thrift;
      ( "modules/create_job.cinc",
        "import_thrift \"schemas/job.thrift\"\n\
         def create_job(name, memory = 1024) =\n\
         \  Job { name = name, memory_mb = memory, args = [\"--service\", name] }" );
      ( "jobs/cache_job.cconf",
        "import \"modules/create_job.cinc\"\nexport create_job(\"cache\", 2048)" );
    ]

let sample_json =
  {|{"name":"cache","memory_mb":2048,"args":["--service","cache","--retries","3"],
     "limits":{"cpu":4,"io":200},"kind":"SERVICE","tags":["prod","tier1"],"weight":0.25}|}

let tests () =
  let json_value = Cm_json.Parser.parse_exn sample_json in
  let tree = figure2_tree () in
  let compiler = Core.Compiler.create tree in
  let dep = Core.Depgraph.of_tree tree in
  let runtime = Cm_gatekeeper.Runtime.create () in
  Cm_gatekeeper.Runtime.load runtime
    (Cm_gatekeeper.Project.staged ~name:"P" ~employee_prob:1.0 ~world_prob:0.01);
  let rng = Cm_sim.Rng.create 99L in
  let users = Array.init 1024 (fun _ -> Cm_gatekeeper.User.random rng) in
  let user_idx = ref 0 in
  let schema = Cm_thrift.Idl.parse_exn job_thrift in
  let job =
    Cm_thrift.Value.Struct
      ("Job", [ "name", Cm_thrift.Value.Str "cache"; "memory_mb", Cm_thrift.Value.Int 512 ])
  in
  let old_text = String.concat "\n" (List.init 40 (fun i -> Printf.sprintf "line %d" i)) in
  let new_text = old_text ^ "\nline 40" in
  let repo = Cm_vcs.Repo.create () in
  ignore
    (Cm_vcs.Repo.commit repo ~author:"seed" ~message:"import" ~timestamp:0.0
       (List.init 1000 (fun i -> Printf.sprintf "f%04d" i, Some "x")));
  let commit_counter = ref 0 in
  [
    Test.make ~name:"json_parse_330B"
      (Staged.stage (fun () -> ignore (Cm_json.Parser.parse_exn sample_json)));
    Test.make ~name:"json_print"
      (Staged.stage (fun () -> ignore (Cm_json.Value.to_compact_string json_value)));
    Test.make ~name:"json_hash"
      (Staged.stage (fun () -> ignore (Cm_json.Value.hash json_value)));
    Test.make ~name:"csl_compile_fig2"
      (Staged.stage (fun () ->
           match Core.Compiler.compile compiler "jobs/cache_job.cconf" with
           | Ok _ -> ()
           | Error _ -> assert false));
    Test.make ~name:"thrift_check_encode"
      (Staged.stage (fun () ->
           match Cm_thrift.Check.check_struct schema "Job" job with
           | Ok v -> ignore (Cm_thrift.Codec.encode v)
           | Error _ -> assert false));
    Test.make ~name:"gk_check"
      (Staged.stage (fun () ->
           user_idx := (!user_idx + 1) land 1023;
           ignore (Cm_gatekeeper.Runtime.check runtime "P" users.(!user_idx))));
    Test.make ~name:"gk_sticky_hash"
      (Staged.stage (fun () -> ignore (Cm_sim.Rng.hash_to_unit "project:user:123456789")));
    Test.make ~name:"depgraph_affected"
      (Staged.stage (fun () ->
           ignore (Core.Depgraph.affected_configs dep [ "modules/create_job.cinc" ])));
    Test.make ~name:"diff_40_lines"
      (Staged.stage (fun () -> ignore (Cm_vcs.Diff.line_changes old_text new_text)));
    Test.make ~name:"vcs_commit_1k_files"
      (Staged.stage (fun () ->
           incr commit_counter;
           ignore
             (Cm_vcs.Repo.commit repo ~author:"bench" ~message:"m"
                ~timestamp:(float_of_int !commit_counter)
                [ "f0001", Some (string_of_int !commit_counter) ])));
  ]

let run () =
  Render.section "micro" "Bechamel microbenchmarks (ns per operation, OLS fit)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None () in
  let grouped = Test.make_grouped ~name:"micro" (tests ()) in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (x :: _) -> x
        | Some [] | None -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
      in
      rows := (name, estimate, r2) :: !rows)
    results;
  let sorted = List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) !rows in
  Render.table
    ~header:[ "operation"; "time/op"; "r^2" ]
    (List.map
       (fun (name, ns, r2) ->
         let time =
           if ns < 1000.0 then Printf.sprintf "%.0fns" ns
           else if ns < 1_000_000.0 then Printf.sprintf "%.1fus" (ns /. 1000.0)
           else Printf.sprintf "%.2fms" (ns /. 1_000_000.0)
         in
         [ name; time; Printf.sprintf "%.3f" r2 ])
       sorted)
