(* Multicore landing path (ISSUE 10): commit-to-land throughput —
   incremental compile + verify plane + sandcastle CI — across OCaml 5
   domains, with results and gates in BENCH_build.json.

   A pool never runs more domains than the host has cores, so a
   "4-domain" row runs min(4, cores) domains.  Two adversarial cone
   shapes:

   - wide: [nwide] configs importing [nmods] shared modules.  Each
     timed round edits one module, dirtying a 1/nmods cone, which the
     compile fans out in one call.  Verify (statics + an invariant + a
     per-artifact consumer test) and the sandcastle checks run inside
     the timed loop — this is the full check plane a landing pays for,
     not just compilation;
   - deep: an [nchain]-long import chain.  Editing its tail dirties
     every link, and the compile fans the whole chain out in one call
     (no compile reads another's artifact), but each link is tiny:
     per round the chain is a small fan-out, so it measures what a
     pool call costs beyond its work, which must stay bounded.

   Gates:
   - equivalence: the 4-domain run's artifact digests, error list,
     cache counters and size, verify verdicts and sandcastle report
     are bit-identical to the 1-domain run's (the QCheck property from
     test_parallel, re-run at bench scale);
   - chain overhead (4 domains vs 1) <= 1.50: a small fan-out must not
     pay for more domains than cores (the clamp).  It still pays a
     domain spawn per call, and on a 2-core host this reads 1.1-1.75,
     over the bound in about half the runs;
   - scaling >= 1.8x at 4 domains vs 1 — gated only in "measured" mode
     (host with >= 4 cores, per the acceptance criterion).  Unlike
     exp_gk's allocation-free read path, compilation allocates heavily,
     and on a single time-sliced core every minor GC becomes a
     cross-domain stop-the-world barrier: aggregate throughput drops
     and no projection from such a host is honest.  Hosts with fewer
     than 4 cores report the measured ratio with scaling_mode
     "under_4_cores_ungated" and the gate recorded as not applied.

   The memo's bound rides along: after the timed wide rounds, at every
   domain count, the cache holds at most one slot per config
   (cache_slots_over_configs <= 1.0).  A table keyed by closure hash
   alone keeps every edited cone and reads 3.0 at --quick scale.

   Tree-size sweep: a fixed [sweep_cone]-config cone of typed configs
   (guarded by one source validator) in trees of 500, 2000 and 8000
   configs.  Per-config CPU ([Sys.time], median of [sweep_reps] reps,
   [Gc.compact] before each size) of compile_affected over the cone
   and of a cold compile_all over the tree must not grow with the
   tree: each 8000/500 ratio <= 2.0.  They read 0.8-1.6 on a 2-core
   host; a key that sorts the whole tree reads 26x and 23x.

   Shared-module cost: [shared_configs] configs that each import one
   module of [shared_k] bindings against the same configs without the
   import (cold compile_all, [Sys.time]; the median ratio over
   [eval_reps] interleaved pairs of reps): per config, the shared
   module may cost at most 2x the module-free row.  Each module is evaluated once per compile, so the importers
   only pay for copying its bindings in; evaluating it per importer
   read about 25x.

   Evaluation scaling: [Eval.run] of one file of K top-level bindings
   [Bnnnn = j * 2 + 1] (parse included), per binding, at K = 1600
   against K = 100 (the median ratio over interleaved pairs, as above)
   <= 2.0: evaluation stays linear.  A re-export test
   that scans the bindings once per environment entry read 4.1x.

   --quick shrinks the workload (not the two evaluation gates). *)

module Compiler = Core.Compiler
module ST = Core.Source_tree
module Pipeline = Core.Pipeline
module Sandcastle = Core.Sandcastle
module Defense = Core.Defense
module Verify = Cm_verify.Verify
module Pool = Cm_parallel.Pool
module Json = Cm_json.Value

let quick = Render.quick
let nmods = 8
let nwide = if quick then 240 else 400
let wide_rounds = if quick then 16 else 32
let nchain = if quick then 24 else 48
let chain_rounds = 8
let reps = 2 (* best-of, to keep single-round noise out of the gates *)
let domain_counts = [ 1; 2; 4 ]

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  r, Unix.gettimeofday () -. t0

(* --- the wide cone ----------------------------------------------------- *)

let module_path k = Printf.sprintf "modules/m%02d.cinc" k
let module_source k v = Printf.sprintf "M%02d = %d" k v
let wide_path i = Printf.sprintf "configs/svc_%04d.cconf" i

let wide_source i =
  let k = i mod nmods in
  Printf.sprintf
    "import \"%s\"\nPORT = 7000 + %d\nW = M%02d * 3 + %d\nexport { id: %d, port: PORT, weight: W, replicas: %d }"
    (module_path k) i k i i ((i mod 5) + 1)

let wide_tree () =
  ST.of_alist
    (List.init nmods (fun k -> module_path k, module_source k k)
    @ List.init nwide (fun i -> wide_path i, wide_source i))

(* The verify plane a landing runs: the standard statics, one
   cross-config invariant over the cone, one per-artifact consumer
   test.  All pass — the bench measures a green landing path. *)
let registry () =
  let t = Verify.standard () in
  Verify.register_invariant t ~name:"ids-distinct" ~prefix:"configs/" (fun cone ->
      let ids =
        List.filter_map
          (fun c -> Cm_json.Value.member "id" c.Compiler.json)
          cone
      in
      if List.length (List.sort_uniq compare ids) = List.length ids then
        Defense.finding ~ok:true "ids pairwise distinct"
      else Defense.finding ~ok:false "duplicate id");
  Verify.register_test t ~name:"port-in-range" ~prefix:"configs/" (fun c ->
      match Cm_json.Value.member "port" c.Compiler.json with
      | Some (Cm_json.Value.Int p) when p >= 7000 && p < 16_000 ->
          Defense.finding ~ok:true "port in range"
      | _ -> Defense.finding ~ok:false ~at:c.Compiler.artifact_path "bad port");
  t

let verify_input ~pool ~tree ~compiler ~repo ~changes compiled =
  {
    Pipeline.verify_changes = changes;
    verify_compiled = compiled;
    verify_tree = tree;
    verify_depgraph = Compiler.depgraph compiler;
    verify_repo = repo;
    verify_validators = Compiler.validators compiler;
    verify_pool = Some pool;
  }

(* One landing round: edit a shared module, recompile the cone, run the
   verify plane and sandcastle over it.  Returns the cone size. *)
let wide_round ~pool ~tree ~compiler ~reg ~sandcastle ~repo r =
  let k = r mod nmods in
  let src = module_source k (1000 + r) in
  ST.write tree (module_path k) src;
  let oks, errors = Compiler.compile_affected ~pool compiler ~changed:[ module_path k ] in
  if errors <> [] then failwith "build: unexpected compile error in the wide cone";
  let verdicts =
    Verify.run reg
      (verify_input ~pool ~tree ~compiler ~repo ~changes:[ module_path k, src ] oks)
  in
  if not (Defense.all_passed verdicts) then failwith "build: verify plane went red";
  if not (Sandcastle.passed (Sandcastle.run ~pool sandcastle oks)) then
    failwith "build: sandcastle went red";
  List.length oks

(* A full sweep cell: fresh tree/compiler/plane, warm bootstrap
   compile, then [wide_rounds] timed landing rounds. *)
let wide_cell ~domains () =
  let pool = Pool.create ~domains () in
  let tree = wide_tree () in
  let compiler = Compiler.create tree in
  let oks, errors = Compiler.compile_all ~pool compiler in
  if errors <> [] || List.length oks <> nwide then
    failwith "build: wide tree failed to bootstrap";
  let reg = registry () in
  let sandcastle = Sandcastle.create () in
  let repo = Cm_vcs.Repo.create () in
  let compiled = ref 0 in
  let (), seconds =
    time (fun () ->
        for r = 1 to wide_rounds do
          compiled := !compiled + wide_round ~pool ~tree ~compiler ~reg ~sandcastle ~repo r
        done)
  in
  seconds, !compiled, Compiler.Cache.size (Compiler.cache compiler)

let best_wide ~domains () =
  let cells = List.init reps (fun _ -> wide_cell ~domains ()) in
  List.fold_left
    (fun (bs, bc, bslots) (s, c, slots) ->
      if s < bs then s, c, slots else bs, bc, bslots)
    (List.hd cells) (List.tl cells)

(* --- the deep chain ---------------------------------------------------- *)

let chain_path i = Printf.sprintf "chain/c%03d.cconf" i

let chain_source ?(v = 0) i =
  if i = nchain - 1 then Printf.sprintf "V = %d\nexport { i: %d, v: V }" v i
  else
    Printf.sprintf "import \"%s\"\nV = V + 1\nexport { i: %d, v: V }"
      (chain_path (i + 1)) i

let chain_cell ~domains () =
  let pool = Pool.create ~domains () in
  let tree = ST.of_alist (List.init nchain (fun i -> chain_path i, chain_source i)) in
  let compiler = Compiler.create tree in
  let _, errors = Compiler.compile_all ~pool compiler in
  if errors <> [] then failwith "build: chain failed to bootstrap";
  let tail = chain_path (nchain - 1) in
  let (), seconds =
    time (fun () ->
        for r = 1 to chain_rounds do
          (* Editing the deepest dependency dirties every link: the
             cone is all [nchain] configs, compiled in one fan-out. *)
          ST.write tree tail (chain_source ~v:r (nchain - 1));
          let oks, errors = Compiler.compile_affected ~pool compiler ~changed:[ tail ] in
          if errors <> [] || List.length oks <> nchain then
            failwith "build: chain round went wrong"
        done)
  in
  seconds

let best_chain ~domains () =
  List.fold_left min (chain_cell ~domains ()) (List.init (reps - 1) (fun _ -> chain_cell ~domains ()))

(* --- tree-size sweep ------------------------------------------------------ *)

let sweep_sizes = [ 500; 2000; 8000 ]
let sweep_cone = 250
let sweep_reps = 15
let hot_module = "modules/hot.cinc"
let sweep_path i = Printf.sprintf "fleet/svc_%05d.cconf" i

(* The first [sweep_cone] configs import the hot module; the rest
   spread over [nmods] cold ones.  Every config is a typed [Svc], so
   each compile resolves and runs the source validator too. *)
let sweep_tree n =
  let import i = if i < sweep_cone then hot_module else module_path (i mod nmods) in
  ST.of_alist
    ([
       ( "schemas/svc.thrift",
         "struct Svc { 1: optional i32 id = 0; 2: optional i32 port = 0; 3: optional i32 weight = 0; }" );
       "schemas/Svc.thrift-cvalidator", "def validate(cfg) = cfg.port < 65536";
       hot_module, "W = 0";
     ]
    @ List.init nmods (fun k -> module_path k, "W = 1")
    @ List.init n (fun i ->
          ( sweep_path i,
            Printf.sprintf
              "import_thrift \"schemas/svc.thrift\"\nimport \"%s\"\nexport Svc { id = %d, port = 7000 + %d, weight = W * 3 }"
              (import i) i i )))

let cpu f =
  let t0 = Sys.time () in
  let r = f () in
  r, Sys.time () -. t0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

type sweep_row = { configs : int; affected_us : float; bootstrap_us : float }

(* Microseconds of CPU per config: a cold compile_all of the whole
   tree, and compile_affected of the hot cone after a hot-module edit
   (a fresh value each rep, so every cone config misses the cache). *)
let sweep_row n =
  Gc.compact ();
  let tree = sweep_tree n in
  let depgraph = Core.Depgraph.of_tree tree in
  let bootstrap =
    List.init sweep_reps (fun _ ->
        (* A fresh cache each rep; compile_all only reads the graph. *)
        let compiler = Compiler.create ~depgraph tree in
        let (oks, errors), s = cpu (fun () -> Compiler.compile_all compiler) in
        if errors <> [] || List.length oks <> n then failwith "build: sweep tree failed to bootstrap";
        s /. float_of_int n)
  in
  let compiler = Compiler.create ~depgraph tree in
  ignore (Compiler.compile_all compiler);
  let affected =
    List.init sweep_reps (fun r ->
        ST.write tree hot_module (Printf.sprintf "W = %d" (r + 1));
        let (oks, errors), s =
          cpu (fun () -> Compiler.compile_affected compiler ~changed:[ hot_module ])
        in
        if errors <> [] || List.length oks <> sweep_cone then
          failwith "build: sweep cone went wrong";
        s /. float_of_int sweep_cone)
  in
  { configs = n; affected_us = 1e6 *. median affected; bootstrap_us = 1e6 *. median bootstrap }

(* --- evaluation cost -------------------------------------------------------- *)

let shared_k = 100
let shared_configs = 250
let eval_reps = 15
let shared_module = "modules/shared.cinc"

let binding_source k =
  String.concat "\n" (List.init k (fun j -> Printf.sprintf "B%04d = %d * 2 + 1" j j))

(* [shared_configs] configs, each importing the [shared_k]-binding
   module (and reading one of its bindings) or importing nothing. *)
let shared_tree ~with_module =
  ST.of_alist
    ((if with_module then [ shared_module, binding_source shared_k ] else [])
    @ List.init shared_configs (fun i ->
          ( Printf.sprintf "svc/c%03d.cconf" i,
            if with_module then
              Printf.sprintf "import \"%s\"\nPORT = 7000 + %d\nexport { id: %d, port: PORT, b: B0000 }"
                shared_module i i
            else Printf.sprintf "PORT = 7000 + %d\nexport { id: %d, port: PORT, b: 1 }" i i )))

(* A rep of CPU per config of a cold compile_all of [shared_tree]. *)
let per_config_rep ~with_module =
  let tree = shared_tree ~with_module in
  let depgraph = Core.Depgraph.of_tree tree in
  fun () ->
    let compiler = Compiler.create ~depgraph tree in
    let (oks, errors), s = cpu (fun () -> Compiler.compile_all compiler) in
    if errors <> [] || List.length oks <> shared_configs then
      failwith "build: shared-module tree failed to compile";
    s /. float_of_int shared_configs

(* Two [k]-key maps sharing half their keys, merged and overridden:
   builtins whose key matching must not grow with the map. *)
let merge_source k =
  let map_lit first =
    "{" ^ String.concat ", " (List.init k (fun j -> Printf.sprintf "k%05d: %d" (first + j) j)) ^ "}"
  in
  Printf.sprintf "A = %s\nB = %s\nexport len(merge(A, B)) + len(override(A, B))" (map_lit 0)
    (map_lit (k / 2))

(* A rep of CPU per binding (or key) of [Eval.run] over [source k];
   each rep evaluates 1600 bindings' worth, so both sizes time the same
   amount of work. *)
let eval_rep source k =
  let source = source k in
  let runs = max 1 (1600 / k) in
  let modules = Cm_lang.Eval.Modules.create ~loader:(fun _ -> None) in
  fun () ->
    let (), s =
      cpu (fun () ->
          for _ = 1 to runs do
            match Cm_lang.Eval.run ~modules ~path:"bindings.cconf" ~source with
            | Ok _ -> ()
            | Error _ -> failwith "build: eval file failed to evaluate"
          done)
    in
    s /. float_of_int (runs * k)

(* [eval_reps] interleaved pairs of reps: the medians of each side and
   of the pairs' [slow / fast] ratios.  Interleaving puts the host's
   noise and the heap's growth on both sides of each ratio. *)
let paired ~fast ~slow =
  Gc.compact ();
  let pairs =
    List.init eval_reps (fun _ ->
        let f = fast () in
        let s = slow () in
        f, s)
  in
  median (List.map fst pairs), median (List.map snd pairs), median (List.map (fun (f, s) -> s /. f) pairs)

(* --- equivalence at bench scale ---------------------------------------- *)

(* Everything observable about one landing round, a 1-domain vs a
   4-domain pool over identical fresh trees. *)
let equivalence_check () =
  let view pool =
    let tree = wide_tree () in
    let compiler = Compiler.create tree in
    let cache = Compiler.cache compiler in
    let oks0, errors0 = Compiler.compile_all ~pool compiler in
    let k = 0 in
    let src = module_source k 424242 in
    ST.write tree (module_path k) src;
    let oks, errors = Compiler.compile_affected ~pool compiler ~changed:[ module_path k ] in
    let reg = registry () in
    let repo = Cm_vcs.Repo.create () in
    let verdicts =
      Verify.run reg
        (verify_input ~pool ~tree ~compiler ~repo ~changes:[ module_path k, src ] oks)
    in
    let report = Sandcastle.run ~pool (Sandcastle.create ()) oks in
    let render_ok c = c.Compiler.config_path, c.Compiler.digest in
    let render_err e = e.Compiler.at, Compiler.stage_name e.Compiler.stage, e.Compiler.message in
    let render_v v = Format.asprintf "%a" Defense.pp_verdict v in
    ( List.map render_ok oks0,
      List.map render_err errors0,
      List.map render_ok oks,
      List.map render_err errors,
      (Compiler.Cache.hits cache, Compiler.Cache.misses cache, Compiler.Cache.size cache),
      List.map render_v verdicts,
      List.map render_v report )
  in
  view (Pool.create ()) = view (Pool.create ~domains:4 ())

(* --- the experiment ---------------------------------------------------- *)

type row = { domains : int; seconds : float; configs_per_s : float; slots : int }

let run () =
  Render.section "build"
    "Multicore landing path: parallel compile + verify + sandcastle throughput";
  let cores = Domain.recommended_domain_count () in

  let rows =
    List.map
      (fun d ->
        let seconds, compiled, slots = best_wide ~domains:d () in
        { domains = d; seconds; configs_per_s = float_of_int compiled /. seconds; slots })
      domain_counts
  in
  let cps d = (List.find (fun r -> r.domains = d) rows).configs_per_s in
  let scaling = cps 4 /. cps 1 in
  let measured = cores >= 4 in
  let scaling_mode = if measured then "measured" else "under_4_cores_ungated" in

  let chain1 = best_chain ~domains:1 () in
  let chain4 = best_chain ~domains:4 () in
  let chain_overhead = chain4 /. chain1 in

  let equivalent = equivalence_check () in
  let slots = List.fold_left (fun m r -> max m r.slots) 0 rows in
  let slots_over_configs = float_of_int slots /. float_of_int nwide in

  let sweep = List.map sweep_row sweep_sizes in
  let sweep_ratio field =
    let at n = field (List.find (fun r -> r.configs = n) sweep) in
    at 8000 /. at 500
  in
  let affected_ratio = sweep_ratio (fun r -> r.affected_us) in
  let bootstrap_ratio = sweep_ratio (fun r -> r.bootstrap_us) in

  let module_free_us, shared_us, shared_ratio =
    paired ~fast:(per_config_rep ~with_module:false) ~slow:(per_config_rep ~with_module:true)
  in
  let module_free_us = 1e6 *. module_free_us and shared_us = 1e6 *. shared_us in
  let eval_small, eval_large, eval_ratio =
    paired ~fast:(eval_rep binding_source 100) ~slow:(eval_rep binding_source 1600)
  in
  let eval_small = 1e9 *. eval_small and eval_large = 1e9 *. eval_large in
  let merge_small, merge_large, merge_ratio =
    paired ~fast:(eval_rep merge_source 100) ~slow:(eval_rep merge_source 1600)
  in
  let merge_small = 1e9 *. merge_small and merge_large = 1e9 *. merge_large in

  Render.table
    ~header:[ "domains"; "wide cone s"; "configs/s" ]
    (List.map
       (fun r ->
         [
           string_of_int r.domains;
           Printf.sprintf "%.3f" r.seconds;
           Printf.sprintf "%.0f" r.configs_per_s;
         ])
       rows);
  Render.kv "cores / scaling mode" (Printf.sprintf "%d / %s" cores scaling_mode);
  Render.kv "1->4 domain scaling" (Printf.sprintf "%.2fx" scaling);
  Render.kv "deep chain, 1 vs 4 domains"
    (Printf.sprintf "%.3fs / %.3fs (overhead %.1f%%)" chain1 chain4
       (100.0 *. (chain_overhead -. 1.0)));
  Render.kv "cache slots after the wide rounds"
    (Printf.sprintf "%d for %d configs" slots nwide);
  Render.note
    "each round = edit a shared module, recompile the cone, run verify + \
     sandcastle: the full commit-to-land check plane";
  Render.table
    ~header:[ "tree configs"; "compile_affected us/config"; "compile_all us/config" ]
    (List.map
       (fun r ->
         [
           string_of_int r.configs;
           Printf.sprintf "%.1f" r.affected_us;
           Printf.sprintf "%.1f" r.bootstrap_us;
         ])
       sweep);
  Render.kv "per-config CPU, 8000 vs 500 configs"
    (Printf.sprintf "compile_affected %.2fx, compile_all %.2fx" affected_ratio bootstrap_ratio);
  Render.kv
    (Printf.sprintf "per-config CPU, %d configs sharing a %d-binding module" shared_configs
       shared_k)
    (Printf.sprintf "%.1f us vs %.1f us module-free (median ratio %.2fx)" shared_us
       module_free_us shared_ratio);
  Render.kv "Eval.run CPU per binding, K = 1600 vs 100"
    (Printf.sprintf "%.0f ns vs %.0f ns (median ratio %.2fx)" eval_large eval_small eval_ratio);
  Render.kv "merge + override CPU per key, K = 1600 vs 100"
    (Printf.sprintf "%.0f ns vs %.0f ns (median ratio %.2fx)" merge_large merge_small merge_ratio);

  let row_json r =
    Json.obj
      [
        "domains", Json.Int r.domains;
        "seconds", Json.Float r.seconds;
        "configs_per_s", Json.Int (int_of_float r.configs_per_s);
      ]
  in
  Render.write_json ~file:"BENCH_build.json"
    (Json.obj
       [
         "wide_configs", Json.Int nwide;
         "wide_rounds", Json.Int wide_rounds;
         "chain_length", Json.Int nchain;
         "rows", Json.List (List.map row_json rows);
         "scaling_mode", Json.String scaling_mode;
         "scaling_4v1_x100", Json.Int (int_of_float (100.0 *. scaling));
         "chain_s_1dom", Json.Float chain1;
         "chain_s_4dom", Json.Float chain4;
         "chain_overhead_4dom_x100", Json.Int (int_of_float (100.0 *. chain_overhead));
         "cache_slots", Json.Int slots;
         "sweep_cone", Json.Int sweep_cone;
         "sweep_reps", Json.Int sweep_reps;
         ( "sweep",
           Json.List
             (List.map
                (fun r ->
                  Json.obj
                    [
                      "configs", Json.Int r.configs;
                      "compile_affected_us_per_config", Json.Float r.affected_us;
                      "compile_all_us_per_config", Json.Float r.bootstrap_us;
                    ])
                sweep) );
         "shared_module_bindings", Json.Int shared_k;
         "shared_module_configs", Json.Int shared_configs;
         "shared_module_us_per_config", Json.Float shared_us;
         "module_free_us_per_config", Json.Float module_free_us;
         "eval_ns_per_binding_k100", Json.Float eval_small;
         "eval_ns_per_binding_k1600", Json.Float eval_large;
         "merge_ns_per_key_k100", Json.Float merge_small;
         "merge_ns_per_key_k1600", Json.Float merge_large;
       ])
    ~gates:
      [
        Render.holds "equivalence" equivalent;
        Render.gate "chain_overhead_4dom" chain_overhead Render.Le 1.50;
        Render.gate "scaling_4v1" ~applies:measured scaling Render.Ge 1.8;
        Render.gate "cache_slots_over_configs" slots_over_configs Render.Le 1.0;
        Render.gate "compile_per_config_8000_over_500" affected_ratio Render.Le 2.0;
        Render.gate "bootstrap_per_config_8000_over_500" bootstrap_ratio Render.Le 2.0;
        Render.gate "shared_module_per_config_over_module_free" shared_ratio Render.Le 2.0;
        Render.gate "eval_per_binding_k1600_over_k100" eval_ratio Render.Le 2.0;
        Render.gate "merge_per_key_k1600_over_k100" merge_ratio Render.Le 2.0;
      ];
  Render.note "wrote BENCH_build.json"
