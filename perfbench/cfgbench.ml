(* One round of the config-change benchmark.

   A round builds one workload's whole stack from a seed, pushes a fixed
   number of config changes through it in a closed loop with one author
   (the next change is issued only when the previous one has landed),
   checks the outputs and prints one JSON line.  perfbench/run.py repeats
   rounds and aggregates them.

     cfgbench.exe WORKLOAD SEED plain
     cfgbench.exe WORKLOAD SEED traced TRACE_FILE

   [plain] drives the stock [Pipeline.create ~jobs:1] stack and reports
   the raw samples behind the end-to-end metrics.  [traced] first runs
   the same round untraced, then replays it on a stack assembled from the
   components [Pipeline.create] wires up, stage by stage in
   [Pipeline.propose]'s order, timing every call into a layer with the
   wall clock.  It reports the per-layer metrics and writes the
   wall-clock span report to TRACE_FILE.

   Everything runs in the calling domain: no pool, no threads. *)

module Engine = Cm_sim.Engine
module Net = Cm_sim.Net
module Topology = Cm_sim.Topology
module Rng = Cm_sim.Rng
module Zeus = Cm_zeus.Service
module Repo = Cm_vcs.Repo
module ST = Core.Source_tree
module Compiler = Core.Compiler
module Pipeline = Core.Pipeline
module Defense = Core.Defense
module Client = Core.Client
module Review = Core.Review
module Sandcastle = Core.Sandcastle
module Landing_strip = Core.Landing_strip
module Tailer = Core.Tailer
module Canary = Core.Canary
module Risk = Core.Risk
module Verify = Cm_verify.Verify
module Runtime = Cm_gatekeeper.Runtime
module Project = Cm_gatekeeper.Project
module Restraint = Cm_gatekeeper.Restraint
module User = Cm_gatekeeper.User
module Json = Cm_json.Value
module Tracer = Cm_trace.Tracer

(* Seconds on the monotonic clock, nanosecond resolution: per-layer
   spans go down to a microsecond. *)
let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Seconds of CPU time (user + system) the process has used.  Everything
   runs in one domain on an in-memory store with no sleeps, so this is
   the host time the stack spends on a change, without the time a shared
   host keeps the process off its cores. *)
let cpu () = Sys.time ()

(* [plain] rounds time with [cpu]; the traced replay times its spans with
   [wall], whose reads are cheap enough to take around every engine event. *)
let clock = ref cpu
let now () = !clock ()

(* --- workloads ------------------------------------------------------------ *)

type workload = Leaf_edit | Cone_edit | Fleet_rollout

let workload_of_string = function
  | "leaf_edit" -> Leaf_edit
  | "cone_edit" -> Cone_edit
  | "fleet_rollout" -> Fleet_rollout
  | w -> invalid_arg ("unknown workload " ^ w)

type shape = {
  regions : int;
  clusters : int;
  nodes : int;  (** per cluster; every node runs a server *)
  configs : int;  (** [.cconf] files, spread over [dirs] directories *)
  dirs : int;
  modules : int;  (** shared [.cinc] modules, config [i] imports [i mod modules] *)
  hot : int;  (** configs that changes and subscriptions draw from *)
  projects : int;  (** Gatekeeper project configs (raw JSON) *)
  subs_configs : int;  (** config artifacts each server subscribes to *)
  subs_projects : int;  (** projects each server subscribes to and loads *)
  changes : int;  (** changes per round *)
  checks : int;  (** Gatekeeper checks after each change drains (0: none) *)
}

(* Sizes keep one round to a few seconds on a shared 2-core host, and
   heap bounded: every commit rewrites the directory objects on its
   path, so heap grows with the number of changes, which is fixed. *)
let shape = function
  | Leaf_edit ->
      { regions = 2; clusters = 2; nodes = 6; configs = 2000; dirs = 4; modules = 1;
        hot = 64; projects = 8; subs_configs = 16; subs_projects = 2; changes = 300;
        checks = 0 }
  | Cone_edit ->
      { regions = 2; clusters = 2; nodes = 10; configs = 2000; dirs = 4; modules = 8;
        hot = 2000; projects = 8; subs_configs = 16; subs_projects = 2; changes = 25;
        checks = 0 }
  | Fleet_rollout ->
      { regions = 4; clusters = 2; nodes = 25; configs = 2000; dirs = 4; modules = 4;
        hot = 0; projects = 40; subs_configs = 0; subs_projects = 24; changes = 150;
        checks = 5_000 }

let module_path k = Printf.sprintf "modules/m%02d.cinc" k
let module_source k v = Printf.sprintf "M%02d = %d" k v
let config_path sh i = Printf.sprintf "svc/d%02d/cfg_%04d.cconf" (i mod sh.dirs) i

let config_source sh i ~rev ~v =
  let k = i mod sh.modules in
  Printf.sprintf
    "import \"%s\"\nPORT = 7000 + %d\nW = M%02d * 3 + %d\nexport { id: %d, port: PORT, weight: W, rev: %d }"
    (module_path k) i k v i rev

let project_name i = Printf.sprintf "proj_%02d" i
let project_file name = "gatekeeper/" ^ name ^ ".json"
let project_path i = project_file (project_name i)
let is_project path = String.length path > 11 && String.sub path 0 11 = "gatekeeper/"

(* A mix of restraint shapes, each ending in a "world" rule whose pass
   probability is what a ramp changes. *)
let project_text i ~world =
  let r = Restraint.make in
  let rules =
    match i mod 5 with
    | 0 -> [ Project.rule ~salt:"employee" ~pass_prob:0.1 [ r Restraint.Employee ] ]
    | 1 ->
        [ Project.rule ~pass_prob:0.5
            [ r (Restraint.Country [ "JP"; "BR" ]); r (Restraint.App_version_at_least 95) ] ]
    | 2 ->
        [ Project.rule
            [ r (Restraint.Platform [ User.Ios ]);
              r (Restraint.Device_model [ "iPhone6,1"; "iPhone7,2" ]) ] ]
    | 3 -> [ Project.rule [ r (Restraint.Id_mod (100, i)); r (Restraint.Min_friends 10) ] ]
    | _ -> [ Project.rule [ r (Restraint.New_user 30); r (Restraint.Locale [ "en_US"; "pt_BR" ]) ] ]
  in
  let world = Project.rule ~salt:"world" ~pass_prob:world [ r Restraint.Always ] in
  Project.to_string (Project.make ~name:(project_name i) (rules @ [ world ]))

let initial_tree sh =
  ST.of_alist
    (List.init sh.modules (fun k -> module_path k, module_source k k)
    @ List.init sh.configs (fun i -> config_path sh i, config_source sh i ~rev:0 ~v:i)
    @ List.init sh.projects (fun i -> project_path i, project_text i ~world:0.01))

(* The verify plane a landing runs.  The cone workload adds, as
   exp_build does, one cross-config invariant and one consumer test. *)
let registry wl =
  let t = Verify.standard () in
  if wl = Cone_edit then begin
    Verify.register_invariant t ~name:"ids-distinct" ~prefix:"svc/" (fun cone ->
        let ids = List.filter_map (fun c -> Json.member "id" c.Compiler.json) cone in
        Defense.finding
          ~ok:(List.length (List.sort_uniq compare ids) = List.length ids)
          "ids pairwise distinct");
    Verify.register_test t ~name:"port-in-range" ~prefix:"svc/" (fun c ->
        match Json.member "port" c.Compiler.json with
        | Some (Json.Int p) when p >= 7000 && p < 16_000 ->
            Defense.finding ~ok:true "port in range"
        | _ -> Defense.finding ~ok:false ~at:c.Compiler.artifact_path "bad port")
  end;
  t

type change = {
  author : string;
  title : string;
  canary : bool;
  edits : (string * string) list;
}

(* Change [k] of a round.  Tools ([set_raw]) skip the canary; the cone
   edit is a human change with the default canary. *)
let next_change wl sh rng ~hot k =
  match wl with
  | Leaf_edit ->
      let i = hot.(Rng.int rng (Array.length hot)) in
      let path = config_path sh i in
      { author = "leafbot"; title = "leafbot update " ^ path; canary = false;
        edits = [ path, config_source sh i ~rev:k ~v:(Rng.int rng 1000) ] }
  | Cone_edit ->
      let m = Rng.int rng sh.modules in
      { author = "dev"; title = "config change"; canary = true;
        edits = [ module_path m, module_source m (1000 + k) ] }
  | Fleet_rollout ->
      let i = Rng.int rng sh.projects in
      let path = project_path i in
      (* strictly increasing ramp: every change moves the bytes *)
      let world = float_of_int (k + 1) /. float_of_int (sh.changes + 2) in
      { author = "rampbot"; title = "rampbot update " ^ path; canary = false;
        edits = [ path, project_text i ~world ] }

(* [n] distinct elements of [pool], seeded. *)
let sample rng n pool =
  let a = Array.copy pool in
  Rng.shuffle rng a;
  Array.sub a 0 (min n (Array.length a))

(* --- per-layer accounting (traced replay only) ---------------------------- *)

module Acct = struct
  type layer =
    | Clone | Compile | Verify | Sandcastle | Review | Canary | Vcs | Tailer | Sim
    | Client | Gk

  let all = [ Clone; Compile; Verify; Sandcastle; Review; Canary; Vcs; Tailer; Sim; Client; Gk ]

  let index = function
    | Clone -> 0 | Compile -> 1 | Verify -> 2 | Sandcastle -> 3 | Review -> 4 | Canary -> 5
    | Vcs -> 6 | Tailer -> 7 | Sim -> 8 | Client -> 9 | Gk -> 10

  let name = function
    | Clone -> "clone" | Compile -> "compiler" | Verify -> "verify"
    | Sandcastle -> "sandcastle" | Review -> "review" | Canary -> "canary" | Vcs -> "vcs"
    | Tailer -> "tailer" | Sim -> "zeus" | Client -> "client" | Gk -> "gk"

  let on = ref false
  let self = Array.make (List.length all) 0.0  (* cumulative self seconds *)

  (* Child time of every open frame, innermost first. *)
  let frames : float ref list ref = ref []
  let step_layer = ref Sim
  let tracer : Tracer.t option ref = ref None
  let ctx = ref Tracer.none

  let frame f =
    let child = ref 0.0 in
    frames := child :: !frames;
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    frames := List.tl !frames;
    (match !frames with p :: _ -> p := !p +. (t1 -. t0) | [] -> ());
    r, t0, t1, !child

  let charge layer t0 t1 child =
    let i = index layer in
    self.(i) <- self.(i) +. (t1 -. t0 -. child)

  let timed ?sample layer f =
    if not !on then f ()
    else begin
      let r, t0, t1, child = frame f in
      charge layer t0 t1 child;
      (match sample with Some s -> s := (t1 -. t0) :: !s | None -> ());
      (match !tracer with
      | Some tr -> ignore (Tracer.span tr !ctx ~name:(name layer) ~t0 ~t1 ())
      | None -> ());
      r
    end

  (* Called from a callback inside an engine event: the event belongs to
     [layer], not to the simulator. *)
  let step_is layer = if !on then step_layer := layer

  let step_child = ref 0.0

  (* One engine event; its self time goes to whichever layer claimed it
     (default: Zeus and the simulator — fan-out, fetches, timers). *)
  let step eng =
    step_layer := Sim;
    step_child := 0.0;
    let outer = !frames in
    frames := step_child :: outer;
    let t0 = now () in
    let r = Engine.step eng in
    let t1 = now () in
    frames := outer;
    (match outer with p :: _ -> p := !p +. (t1 -. t0) | [] -> ());
    charge !step_layer t0 t1 !step_child;
    r

  let reset () =
    Array.fill self 0 (Array.length self) 0.0;
    frames := [];
    tracer := None;
    ctx := Tracer.none
end

(* Samples the traced replay takes at layer boundaries. *)
let load_ms = ref []
let poll_ms = ref []
let compiled_configs = ref 0
let compile_words = ref 0.0
let verdicts_seen = ref 0

(* --- the fleet -------------------------------------------------------------- *)

type server = {
  client : Client.t;
  runtime : Runtime.t;
  paths : string array;  (** subscribed artifact paths *)
  gk : string array;  (** subscribed project names, in Zipf rank order *)
}

type expect = { bytes : string; t_land : float; mutable waiting : int }

type fleet = {
  mutable servers : server array;
  subscribers : (string, int) Hashtbl.t;
  expect : (string, expect) Hashtbl.t;
      (** latest landed bytes per subscribed path, and how many
          subscribers do not hold them yet *)
  mutable undelivered : int;
  mutable recording : bool;
  mutable pairs : float list;  (** commit-to-client, simulated seconds *)
  mutable load_errors : int;
  users : User.t array;
}

(* A server's subscription callback: the application decodes the new
   bytes through the client's parse-once memo and, for a project,
   reloads its Gatekeeper runtime. *)
let deliver fl eng client runtime path data =
  Acct.timed Acct.Client (fun () ->
      match Client.get_json client path with
      | Some json when is_project path -> (
          match Acct.timed ~sample:load_ms Acct.Gk (fun () -> Runtime.load_json runtime json) with
          | Ok () -> ()
          | Error _ -> fl.load_errors <- fl.load_errors + 1)
      | _ -> ());
  match Hashtbl.find_opt fl.expect path with
  | Some e when e.waiting > 0 && String.equal e.bytes data ->
      e.waiting <- e.waiting - 1;
      fl.undelivered <- fl.undelivered - 1;
      if fl.recording then fl.pairs <- (Engine.now eng -. e.t_land) :: fl.pairs
  | _ -> ()

let build_fleet sh eng zeus topo rng ~hot =
  let fl =
    {
      servers = [||];
      subscribers = Hashtbl.create 256;
      expect = Hashtbl.create 256;
      undelivered = 0;
      recording = false;
      pairs = [];
      load_errors = 0;
      users = Array.init 1024 (fun _ -> User.random rng);
    }
  in
  fl.servers <-
    Array.map
      (fun (n : Topology.node) ->
        let client = Client.create zeus ~node:n.Topology.id in
        let runtime = Runtime.create () in
        let cfgs =
          Array.map
            (fun i -> Compiler.artifact_path_of (config_path sh i))
            (sample rng sh.subs_configs hot)
        in
        let projs = sample rng sh.subs_projects (Array.init sh.projects Fun.id) in
        let paths = Array.append cfgs (Array.map project_path projs) in
        Array.iter
          (fun path ->
            Hashtbl.replace fl.subscribers path
              (1 + Option.value ~default:0 (Hashtbl.find_opt fl.subscribers path));
            Client.want client path;
            Client.subscribe_raw client path (deliver fl eng client runtime path))
          paths;
        { client; runtime; paths; gk = Array.map project_name projs })
      (Topology.nodes topo);
  fl

(* Every subscribed path [paths] touched now holds new bytes that each
   of its subscribers must receive. *)
let expect_paths fl repo eng paths =
  let t_land = Engine.now eng in
  List.iter
    (fun path ->
      match Hashtbl.find_opt fl.subscribers path, Repo.read_file repo path with
      | Some n, Some bytes ->
          (match Hashtbl.find_opt fl.expect path with
          | Some old -> fl.undelivered <- fl.undelivered - old.waiting
          | None -> ());
          Hashtbl.replace fl.expect path { bytes; t_land; waiting = n };
          fl.undelivered <- fl.undelivered + n
      | _ -> ())
    paths

let drain ~step eng fl ~limit =
  let deadline = Engine.now eng +. limit in
  while fl.undelivered > 0 && Engine.now eng < deadline do
    if not (step ()) then failwith "engine drained while the fleet still waits"
  done;
  fl.undelivered = 0

(* [n] Zipf-skewed checks: requests of [burst] checks each, every
   request served by a random server. *)
let burst = 50

let read_batch fl rng zipf n =
  let passes = ref 0 in
  let ns = Array.length fl.servers and nu = Array.length fl.users in
  for _ = 1 to n / burst do
    let s = fl.servers.(Rng.int rng ns) in
    for _ = 1 to burst do
      let p = s.gk.(Rng.Zipf.draw rng zipf - 1) in
      if Runtime.check s.runtime p fl.users.(Rng.int rng nu) then incr passes
    done
  done;
  !passes

(* Sampled output check of the read plane: the optimized check must
   agree with the written evaluation order.  The application reads the
   project through its client first (a parse-once memo hit). *)
let naive_mismatches fl rng zipf n =
  let bad = ref 0 in
  let ns = Array.length fl.servers and nu = Array.length fl.users in
  for _ = 1 to n do
    let s = fl.servers.(Rng.int rng ns) in
    let p = s.gk.(Rng.Zipf.draw rng zipf - 1) in
    let u = fl.users.(Rng.int rng nu) in
    ignore (Client.get_json s.client (project_file p));
    if Runtime.check s.runtime p u <> Runtime.check_naive s.runtime p u then incr bad
  done;
  !bad

let client_mismatches fl repo =
  Array.fold_left
    (fun acc s ->
      Array.fold_left
        (fun acc path ->
          if Client.get_raw s.client path = Repo.read_file repo path then acc else acc + 1)
        acc s.paths)
    0 fl.servers

let restraints fl =
  Array.fold_left (fun acc s -> acc + Runtime.evaluated_restraints s.runtime) 0 fl.servers

let checks_done fl =
  Array.fold_left (fun acc s -> acc + Runtime.checks_performed s.runtime) 0 fl.servers

(* --- the replayed pipeline -------------------------------------------------- *)

(* The components [Pipeline.create] wires up, driven by [propose] below
   in [Pipeline.propose]'s stage order with every call timed. *)
type replica = {
  tree : ST.t;
  compiler : Compiler.t;
  review : Review.t;
  sandcastle : Sandcastle.t;
  landing : Landing_strip.t;
  repo : Repo.t;
  tailer : Tailer.t;
  verify : Verify.t;
}

let reviewers = [ "alice"; "bob"; "carol" ]
let review_delay = 120.0

let pick_reviewer author =
  match List.find_opt (fun r -> not (String.equal r author)) reviewers with
  | Some r -> r
  | None -> "oncall"

let canary_sampler ~node ~test ~cohort =
  Acct.step_is Acct.Canary;
  Pipeline.healthy_sampler ~node ~test ~cohort

let propose eng topo rp ch ~on_done =
  let changed = List.map fst ch.edits in
  let clone, clone_compiler =
    Acct.timed Acct.Clone (fun () ->
        let clone = ST.copy rp.tree in
        List.iter (fun (path, content) -> ST.write clone path content) ch.edits;
        ( clone,
          Compiler.create ~validators:(Compiler.validators rp.compiler)
            ~cache:(Compiler.cache rp.compiler)
            ~depgraph:(Core.Depgraph.copy (Compiler.depgraph rp.compiler))
            clone ))
  in
  let compiled, errors =
    Acct.timed Acct.Compile (fun () ->
        let w0 = Gc.minor_words () in
        let compiled, errors = Compiler.compile_affected clone_compiler ~changed in
        compile_words := !compile_words +. (Gc.minor_words () -. w0);
        compiled_configs := !compiled_configs + List.length compiled;
        compiled, errors)
  in
  (* Per-config canary spec lookup ("<path>.canary"), as the pipeline does
     for every change, canary or not. *)
  let spec_result =
    Acct.timed Acct.Canary (fun () ->
        let rec find = function
          | [] -> Ok Canary.default_spec
          | path :: rest -> (
              match ST.read clone (path ^ ".canary") with
              | None -> find rest
              | Some text -> (
                  match Canary.spec_of_string text with
                  | Ok spec -> Ok spec
                  | Error message ->
                      Error { Compiler.at = path ^ ".canary"; stage = Compiler.Validation; message }))
        in
        find changed)
  in
  let errors = match spec_result with Ok _ -> errors | Error e -> errors @ [ e ] in
  let reject stage verdicts = on_done (Pipeline.Rejected (Defense.reject ~stage verdicts)) in
  if errors <> [] then reject "compile" (List.map Compiler.verdict_of_error errors)
  else begin
    let verdicts =
      Acct.timed Acct.Verify (fun () ->
          Verify.run rp.verify
            {
              Pipeline.verify_changes = ch.edits;
              verify_compiled = compiled;
              verify_tree = clone;
              verify_depgraph = Compiler.depgraph clone_compiler;
              verify_repo = rp.repo;
              verify_validators = Compiler.validators rp.compiler;
              verify_pool = None;
            })
    in
    verdicts_seen := !verdicts_seen + List.length verdicts;
    let canary_spec = match spec_result with Ok s -> s | Error _ -> Canary.default_spec in
    if not (Defense.all_passed verdicts) then begin
      Acct.timed Acct.Review (fun () ->
          let base = Repo.head rp.repo in
          let diff_id =
            Review.submit rp.review ~author:ch.author ~title:ch.title ~base
              (List.map (fun (p, c) -> p, Some c) ch.edits)
          in
          List.iter (Review.post_verdict rp.review diff_id) verdicts);
      reject "verify" verdicts
    end
    else begin
      let report = Acct.timed Acct.Sandcastle (fun () -> Sandcastle.run rp.sandcastle compiled) in
      let base, repo_changes, reads =
        Acct.timed Acct.Vcs (fun () ->
            let repo_changes =
              List.map (fun (path, content) -> path, Some content) ch.edits
              @ List.filter_map
                  (fun c ->
                    if c.Compiler.artifact_path = c.Compiler.config_path then None
                    else
                      match Repo.read_file rp.repo c.Compiler.artifact_path with
                      | Some existing when String.equal existing c.Compiler.json_text -> None
                      | _ -> Some (c.Compiler.artifact_path, Some c.Compiler.json_text))
                  compiled
            in
            let reads =
              List.filter
                (fun path -> not (List.mem path changed))
                (List.sort_uniq String.compare
                   (List.concat_map (fun c -> c.Compiler.config_path :: c.Compiler.deps) compiled))
            in
            Repo.head rp.repo, repo_changes, reads)
      in
      (* Schema-compat runs only for edited .thrift sources; no workload
         edits one, so the replay leaves it out. *)
      let diff_id =
        Acct.timed Acct.Review (fun () ->
            let diff_id = Review.submit rp.review ~author:ch.author ~title:ch.title ~base repo_changes in
            Sandcastle.post_to_review rp.review diff_id report;
            List.iter (Review.post_verdict rp.review diff_id) verdicts;
            let now_days = Engine.now eng /. 86400.0 in
            List.iter
              (fun (path, content) ->
                let history =
                  Risk.history_of_repo rp.repo (Compiler.depgraph rp.compiler) ~path ~now:now_days
                in
                let assessment =
                  Risk.assess ~history ~now:now_days ~old_text:(ST.read rp.tree path)
                    ~new_text:content ~author:ch.author ()
                in
                if assessment.Risk.level <> Risk.Low then
                  Review.post_test_result rp.review diff_id
                    ~name:(Printf.sprintf "risk-flag:%s" path)
                    ~passed:true
                    ~detail:(Format.asprintf "%a" Risk.pp assessment))
              ch.edits;
            diff_id)
      in
      if not (Sandcastle.passed report) then reject "sandcastle" report
      else
        ignore
          (Engine.schedule eng ~delay:review_delay (fun () ->
               let reviewer = pick_reviewer ch.author in
               match
                 Acct.timed Acct.Review (fun () -> Review.approve rp.review diff_id ~reviewer)
               with
               | Error reason ->
                   reject "review" [ Defense.fail ~stage:"review" ~rule:"approval" reason ]
               | Ok () ->
                   let to_landing () =
                     Acct.timed Acct.Vcs (fun () ->
                         Landing_strip.submit ~reads rp.landing
                           { Landing_strip.author = ch.author; message = ch.title; base;
                             changes = repo_changes }
                           ~on_result:(fun result ->
                             (* the commit event: Repo.commit ran inside it *)
                             Acct.step_is Acct.Vcs;
                             match result with
                             | Landing_strip.Conflict paths ->
                                 reject "conflict" (Landing_strip.conflict_verdicts paths)
                             | Landing_strip.Committed oid ->
                                 List.iter (fun (path, content) -> ST.write rp.tree path content)
                                   ch.edits;
                                 Compiler.note_changed rp.compiler changed;
                                 on_done (Pipeline.Landed oid)))
                   in
                   if not ch.canary then to_landing ()
                   else
                     Acct.timed Acct.Canary (fun () ->
                         Canary.run ~spec:canary_spec eng topo ~sampler:canary_sampler
                           ~on_done:(function
                             | Canary.Failed failure ->
                                 reject "canary" [ Canary.verdict_of_failure failure ]
                             | Canary.Passed -> to_landing ())
                           ())))
    end
  end

(* --- a round ---------------------------------------------------------------- *)

type stack = {
  eng : Engine.t;
  net : Net.t;
  zeus : Zeus.t;
  repo : Repo.t;
  tailer : Tailer.t;
  compiler : Compiler.t;
  submit : change -> on_done:(Pipeline.outcome -> unit) -> unit;
  step : unit -> bool;
}

type result = {
  setup_s : float;
  bootstrap_s : float;
  propose_ms : float list;
  change_ms : float list;  (** issue -> outcome *)
  cycle_ms : float list;  (** issue -> next issue (adds drain and reads) *)
  attributed_ms : float list;  (** traced only: layer self time inside change_ms *)
  layer_ms : float array list;  (** traced only: per-change self time per layer *)
  check_ns : float list;  (** per read batch *)
  batch_restraints : int;
  batch_checks : int;
  attempted : int;
  failed : int;
  heap_peak_mb : float;
  counts : (string * Json.t) list;  (** deterministic for a given seed *)
  sim_ms_per_change : float;  (** traced only: Zeus/simulator self time *)
  client_mismatches : int;
  naive_mismatches : int;
  load_errors : int;
  head_tree : string;
}

let percentile l p =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  Tracer.percentile a p

let tree_of repo =
  match Repo.head repo with
  | None -> "none"
  | Some oid -> (
      match Repo.commit_info repo oid with Some c -> c.Cm_vcs.Store.tree | None -> "none")

(* One round in progress. *)
type run = {
  sh : shape;
  wl : workload;
  stack : stack;
  fl : fleet;
  hot : int array;
  change_rng : Rng.t;
  read_rng : Rng.t;
  zipf : Rng.Zipf.dist;
  setup_s : float;
  bootstrap_s : float;
  base : int array;  (** counters right after set-up, see [counters] *)
  sim0 : float;
  mutable propose_ms : float list;
  mutable change_ms : float list;
  mutable cycle_ms : float list;
  mutable attributed_ms : float list;
  mutable layer_ms : float array list;
  mutable check_ns : float list;
  mutable batch_restraints : int;
  mutable batch_checks : int;
  mutable failed : int;
  mutable naive_bad : int;
  mutable k : int;
}

let decodes fl = Array.fold_left (fun a s -> a + Client.decodes s.client) 0 fl.servers
let memo_hits fl = Array.fold_left (fun a s -> a + Client.memo_hits s.client) 0 fl.servers

(* Cumulative counters whose growth over the timed changes is reported. *)
let counters st fl =
  let zs = Zeus.stats st.zeus in
  let cache = Compiler.cache st.compiler in
  [| Net.bytes_sent st.net; Engine.events_processed st.eng; Tailer.writes_issued st.tailer;
     zs.Zeus.fetches; zs.Zeus.leader_bytes; Cm_vcs.Store.total_bytes (Repo.store st.repo);
     Compiler.Cache.hits cache; Compiler.Cache.misses cache; decodes fl; memo_hits fl |]

let setup wl seed ~traced =
  let sh = shape wl in
  let t_setup = now () in
  let eng = Engine.create ~seed:(Int64.of_int seed) () in
  let topo =
    Topology.create ~regions:sh.regions ~clusters_per_region:sh.clusters
      ~nodes_per_cluster:sh.nodes
  in
  let net = Net.create eng topo in
  let zeus = Zeus.create net in
  let setup_rng = Rng.create (Int64.of_int (1_000_003 * seed + 1)) in
  let hot = sample setup_rng sh.hot (Array.init sh.configs Fun.id) in
  let tree = initial_tree sh in
  let reg = registry wl in
  let bootstrap_s = ref 0.0 in
  let stack =
    if not traced then begin
      let p = Pipeline.create ~verify:(Verify.run reg) ~jobs:1 net zeus tree in
      let t0 = now () in
      Pipeline.bootstrap p;
      bootstrap_s := now () -. t0;
      Pipeline.start p;
      let mutator = Core.Mutator.create p in
      let submit ch ~on_done =
        match ch.edits with
        | [ (path, content) ] when not ch.canary ->
            Core.Mutator.set_raw mutator ~tool:ch.author ~path ~content ~on_done
        | edits -> Pipeline.propose p ~author:ch.author ~title:ch.title edits ~on_done
      in
      { eng; net; zeus; repo = Pipeline.repo p; tailer = Pipeline.tailer p;
        compiler = Pipeline.compiler p; submit; step = (fun () -> Engine.step eng) }
    end
    else begin
      let repo = Repo.create () in
      let compiler = Compiler.create tree in
      let rp =
        { tree; compiler; review = Review.create (); sandcastle = Sandcastle.create ();
          landing = Landing_strip.create eng repo; repo; tailer = Tailer.create eng repo zeus;
          verify = reg }
      in
      let compiled, errors =
        Acct.timed Acct.Compile (fun () ->
            let t0 = now () in
            let r = Compiler.compile_all compiler in
            bootstrap_s := now () -. t0;
            r)
      in
      if errors <> [] then failwith "bootstrap: tree does not compile";
      let artifacts =
        List.filter_map
          (fun c ->
            if c.Compiler.artifact_path = c.Compiler.config_path then None
            else Some (c.Compiler.artifact_path, Some c.Compiler.json_text))
          compiled
      in
      Acct.timed Acct.Vcs (fun () ->
          ignore
            (Repo.commit repo ~author:"bootstrap" ~message:"initial import"
               ~timestamp:(Engine.now eng)
               (List.map (fun (p, c) -> p, Some c) (ST.snapshot tree) @ artifacts)));
      (* the tailer's poll loop, as [Tailer.start] runs it *)
      let rec tail () =
        ignore
          (Engine.schedule eng ~delay:5.0 (fun () ->
               let w0 = Tailer.writes_issued rp.tailer in
               let sample = ref [] in
               Acct.timed ~sample Acct.Tailer (fun () -> Tailer.force_poll rp.tailer);
               if Tailer.writes_issued rp.tailer > w0 then poll_ms := !sample @ !poll_ms;
               tail ()))
      in
      tail ();
      { eng; net; zeus; repo; tailer = rp.tailer; compiler; submit = propose eng topo rp;
        step = (fun () -> Acct.step eng) }
    end
  in
  let fl = build_fleet sh eng zeus topo setup_rng ~hot in
  expect_paths fl stack.repo eng (Hashtbl.fold (fun p _ acc -> p :: acc) fl.subscribers []);
  if not (drain ~step:stack.step eng fl ~limit:600.0) then failwith "fleet cold start stalled";
  let setup_s = now () -. t_setup in
  fl.recording <- true;
  {
    sh; wl; stack; fl; hot;
    change_rng = Rng.create (Int64.of_int (1_000_003 * seed + 2));
    read_rng = Rng.create (Int64.of_int (1_000_003 * seed + 3));
    zipf = Rng.Zipf.make ~n:(max 1 sh.subs_projects) ~s:1.2;
    setup_s; bootstrap_s = !bootstrap_s;
    base = counters stack fl;
    sim0 = Acct.self.(Acct.index Acct.Sim);
    propose_ms = []; change_ms = []; cycle_ms = []; attributed_ms = []; layer_ms = [];
    check_ns = []; batch_restraints = 0; batch_checks = 0; failed = 0; naive_bad = 0; k = 0;
  }

let timed_reads r n =
  let r0 = restraints r.fl in
  let t0 = now () in
  ignore (Acct.timed Acct.Gk (fun () -> read_batch r.fl r.read_rng r.zipf n));
  r.check_ns <- (1e9 *. (now () -. t0) /. float_of_int n) :: r.check_ns;
  r.batch_restraints <- r.batch_restraints + (restraints r.fl - r0);
  r.batch_checks <- r.batch_checks + n

(* Issue the next change and wait for its outcome; on the fleet
   workload also wait until every subscriber holds it, then serve a
   batch of reads. *)
let change r =
  r.k <- r.k + 1;
  let st = r.stack in
  let ch = next_change r.wl r.sh r.change_rng ~hot:r.hot r.k in
  (match !Acct.tracer with
  | Some tr when !Acct.on -> Acct.ctx := Tracer.new_trace tr ~name:(Printf.sprintf "change %d" r.k)
  | _ -> ());
  let before = Array.copy Acct.self in
  let outcome = ref None in
  let t0 = now () in
  st.submit ch ~on_done:(fun o -> outcome := Some (o, now ()));
  r.propose_ms <- (1000.0 *. (now () -. t0)) :: r.propose_ms;
  while Option.is_none !outcome do
    if not (st.step ()) then failwith "engine drained before the change resolved"
  done;
  let o, t_out = Option.get !outcome in
  let at_outcome = Array.copy Acct.self in
  r.change_ms <- (1000.0 *. (t_out -. t0)) :: r.change_ms;
  (match o with
  | Pipeline.Landed oid ->
      expect_paths r.fl st.repo st.eng (Repo.changed_paths_of_commit st.repo oid)
  | Pipeline.Rejected _ -> r.failed <- r.failed + 1);
  if r.sh.checks > 0 then begin
    if not (drain ~step:st.step st.eng r.fl ~limit:600.0) then failwith "change did not drain";
    timed_reads r r.sh.checks;
    r.naive_bad <- r.naive_bad + naive_mismatches r.fl r.read_rng r.zipf 64
  end;
  r.cycle_ms <- (1000.0 *. (now () -. t0)) :: r.cycle_ms;
  if !Acct.on then begin
    let delta a = Array.mapi (fun i v -> v -. before.(i)) a in
    r.attributed_ms <- (1000.0 *. Array.fold_left ( +. ) 0.0 (delta at_outcome)) :: r.attributed_ms;
    r.layer_ms <- Array.map (fun v -> 1000.0 *. v) (delta Acct.self) :: r.layer_ms
  end

(* Final drain, read-plane checks and every output check. *)
let finish r =
  let st = r.stack and fl = r.fl in
  let heap_peak_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6
  in
  Acct.ctx := Tracer.none;
  if not (drain ~step:st.step st.eng fl ~limit:600.0) then failwith "final drain stalled";
  if r.sh.checks = 0 then begin
    for _ = 1 to 8 do timed_reads r 2500 done;
    r.naive_bad <- r.naive_bad + naive_mismatches fl r.read_rng r.zipf 2000
  end;
  let n = float_of_int r.sh.changes in
  let grown = Array.mapi (fun i v -> v - r.base.(i)) (counters st fl) in
  let per_change i = Json.Float (float_of_int grown.(i) /. n) in
  let counts =
    [
      "commit_to_client_s_p50", Json.Float (percentile fl.pairs 0.50);
      "commit_to_client_s_p99", Json.Float (percentile fl.pairs 0.99);
      "commit_to_client_pairs", Json.Int (List.length fl.pairs);
      "wire_bytes_per_change", per_change 0;
      "sim.events_per_change", per_change 1;
      "tailer.writes_per_change", per_change 2;
      "zeus.fetches_per_change", per_change 3;
      "zeus.leader_bytes_per_change", per_change 4;
      "vcs.store_bytes_per_change", per_change 5;
      "compiler.cache_hits", Json.Int grown.(6);
      "compiler.cache_misses", Json.Int grown.(7);
      "client.decodes", Json.Int grown.(8);
      "client.memo_hits", Json.Int grown.(9);
      "gk.checks", Json.Int (checks_done fl);
      "landed", Json.Int (r.sh.changes - r.failed);
    ]
  in
  {
    setup_s = r.setup_s;
    bootstrap_s = r.bootstrap_s;
    propose_ms = List.rev r.propose_ms;
    change_ms = List.rev r.change_ms;
    cycle_ms = List.rev r.cycle_ms;
    attributed_ms = List.rev r.attributed_ms;
    layer_ms = List.rev r.layer_ms;
    check_ns = List.rev r.check_ns;
    batch_restraints = r.batch_restraints;
    batch_checks = r.batch_checks;
    attempted = r.sh.changes;
    failed = r.failed;
    heap_peak_mb;
    counts;
    sim_ms_per_change = 1000.0 *. (Acct.self.(Acct.index Acct.Sim) -. r.sim0) /. n;
    client_mismatches = client_mismatches fl st.repo;
    naive_mismatches = r.naive_bad;
    load_errors = fl.load_errors;
    head_tree = tree_of st.repo;
  }

(* --- output ------------------------------------------------------------------ *)

let floats l = Json.List (List.map (fun f -> Json.Float f) l)

let checks_json (r : result) =
  [
    "client_mismatches", Json.Int r.client_mismatches;
    "gk_naive_mismatches", Json.Int r.naive_mismatches;
    "gk_load_errors", Json.Int r.load_errors;
    "head_tree", Json.String r.head_tree;
  ]

let plain_json wl_name seed (r : result) =
  Json.obj
    ([
       "mode", Json.String "plain";
       "workload", Json.String wl_name;
       "seed", Json.Int seed;
       "attempted", Json.Int r.attempted;
       "failed", Json.Int r.failed;
       "setup_s", Json.Float r.setup_s;
       "heap_peak_mb", Json.Float r.heap_peak_mb;
       "propose_ms", floats r.propose_ms;
       "change_ms", floats r.change_ms;
       "cycle_ms", floats r.cycle_ms;
       "counts", Json.obj r.counts;
     ]
    @ checks_json r)

let median l = percentile l 0.5

let per_layer ~(untraced : result) (r : result) =
  let layer l = List.map (fun a -> a.(Acct.index l)) r.layer_ms in
  let n = float_of_int r.attempted in
  let count name =
    match List.assoc_opt name r.counts with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> nan
  in
  let ratio a b = if a +. b = 0.0 then 0.0 else a /. (a +. b) in
  let untraced_p50 = median untraced.change_ms in
  [
    "clone.ms_p50", median (layer Acct.Clone);
    "compiler.ms_p50", median (layer Acct.Compile);
    "compiler.configs_per_change", float_of_int !compiled_configs /. n;
    "compiler.cache_hit_ratio", ratio (count "compiler.cache_hits") (count "compiler.cache_misses");
    "compiler.alloc_mw_per_change", !compile_words /. n /. 1e6;
    "compiler.bootstrap_s", r.bootstrap_s;
    "verify.ms_p50", median (layer Acct.Verify);
    "verify.checks_per_change", float_of_int !verdicts_seen /. n;
    "sandcastle.ms_p50", median (layer Acct.Sandcastle);
    "review.ms_p50", median (layer Acct.Review);
    "canary.ms_p50", median (layer Acct.Canary);
    "vcs.commit_ms_p50", median (layer Acct.Vcs);
    "vcs.store_bytes_per_change", count "vcs.store_bytes_per_change";
    "tailer.poll_ms_p50", 1000.0 *. median !poll_ms;
    "tailer.writes_per_change", count "tailer.writes_per_change";
    "zeus.drain_ms_per_change", r.sim_ms_per_change;
    "sim.events_per_change", count "sim.events_per_change";
    "zeus.fetches_per_change", count "zeus.fetches_per_change";
    "zeus.leader_bytes_per_change", count "zeus.leader_bytes_per_change";
    "client.decodes_per_change", count "client.decodes" /. n;
    "client.memo_hit_ratio", ratio (count "client.memo_hits") (count "client.decodes");
    "gk.check_ns_p50", median r.check_ns;
    "gk.load_ms_p50", 1000.0 *. median !load_ms;
    "gk.restraints_per_check", float_of_int r.batch_restraints /. float_of_int r.batch_checks;
    "trace.unattributed_share", 1.0 -. (median r.attributed_ms /. untraced_p50);
    "trace.overhead_ratio", median r.change_ms /. untraced_p50;
  ]

let () =
  match Array.to_list Sys.argv with
  | [ _; wl_name; seed; "plain" ] ->
      let wl = workload_of_string wl_name and seed = int_of_string seed in
      let r = setup wl seed ~traced:false in
      for _ = 1 to r.sh.changes do change r done;
      print_endline (Json.to_compact_string (plain_json wl_name seed (finish r)))
  | [ _; wl_name; seed; "traced"; trace_file ] ->
      (* The untraced and the traced stack run in lockstep, one change
         each in turn, so host noise falls on both alike and the
         traced/untraced ratio measures the tracing, not the moment. *)
      let wl = workload_of_string wl_name and seed = int_of_string seed in
      clock := wall;
      let tr = Tracer.create ~now () in
      Acct.reset ();
      let traced f =
        Acct.on := true;
        Acct.tracer := Some tr;
        let x = f () in
        Acct.on := false;
        x
      in
      let u = setup wl seed ~traced:false in
      let t = traced (fun () -> setup wl seed ~traced:true) in
      for _ = 1 to u.sh.changes do
        change u;
        traced (fun () -> change t)
      done;
      let untraced = finish u in
      let r = traced (fun () -> finish t) in
      let oc = open_out trace_file in
      Printf.fprintf oc "# %s seed %d: %d wall-clock spans over %d changes\n%s" wl_name seed
        (Tracer.span_count tr) r.attempted (Tracer.hop_report tr);
      close_out oc;
      let layers = per_layer ~untraced r in
      print_endline
        (Json.to_compact_string
           (Json.obj
              ([
                 "mode", Json.String "traced";
                 "workload", Json.String wl_name;
                 "seed", Json.Int seed;
                 "attempted", Json.Int r.attempted;
                 "failed", Json.Int r.failed;
                 "head_match", Json.Bool (String.equal r.head_tree untraced.head_tree);
                 "untraced_change_ms_p50", Json.Float (median untraced.change_ms);
                 "traced_change_ms_p50", Json.Float (median r.change_ms);
                 "per_layer", Json.obj (List.map (fun (k, v) -> k, Json.Float v) layers);
                 "counts", Json.obj r.counts;
                 "untraced_counts", Json.obj untraced.counts;
                 "compile_alloc_words", Json.Float !compile_words;
               ]
              @ checks_json r)))
  | _ ->
      prerr_endline
        "usage: cfgbench.exe WORKLOAD SEED plain | cfgbench.exe WORKLOAD SEED traced TRACE_FILE";
      exit 2
