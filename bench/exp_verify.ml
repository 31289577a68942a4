(* The verify-stage ablation: rerun §6.4's fault-injection table with
   the Cm_verify correctness plane switched off (today's pipeline) and
   on (validators -> verify -> review -> canaries), same injected
   faults, same canary simulations.  The baseline is the paper's
   incident table: its escapes' type mix is printed against the
   paper's Type I 42% / Type II 36% / Type III 22%.  The verify stage
   catches Type I errors whose invariant was statically checkable but
   never declared as a validator, and Type II errors a registered
   config test trips over — before review ever sees the diff.

   Also runs one real end-to-end rejection through the pipeline: a
   registry with a consumer config test bounces a bad value at stage
   "verify" and attaches a last-landed repair suggestion, surfaced on
   the review diff.

   Results land in BENCH_verify.json; --quick shrinks the injection
   count (the gates stay meaningful because the quick run scales its
   threshold with n). *)

module Faults = Core.Faults
module Canary = Core.Canary
module Defense = Core.Defense
module Pipeline = Core.Pipeline
module Engine = Cm_sim.Engine
module Topology = Cm_sim.Topology

let quick = Render.quick

type stage = Validator | Verify | Review | Canary_small | Canary_cluster | Escaped

let stage_label = function
  | Validator -> "compiler validators"
  | Verify -> "verify stage (static + config tests)"
  | Review -> "code review"
  | Canary_small -> "canary phase 1 (20 servers)"
  | Canary_cluster -> "canary phase 2 (full cluster)"
  | Escaped -> "escaped to production (incident)"

let stage_key = function
  | Validator -> "validator"
  | Verify -> "verify"
  | Review -> "review"
  | Canary_small -> "canary_small"
  | Canary_cluster -> "canary_cluster"
  | Escaped -> "escaped"

let stages = [ Validator; Verify; Review; Canary_small; Canary_cluster; Escaped ]

(* Both scenarios classify the same injected fault against the same
   (lazily computed, shared) canary outcome: the only difference is
   whether the verify stage exists. *)
let classify ~with_verify ~canary injected =
  if injected.Faults.validator_visible then Validator
  else if with_verify && injected.Faults.verify_visible then Verify
  else if injected.Faults.reviewer_catches then Review
  else
    match Lazy.force canary with
    | Canary.Failed f when f.Canary.failed_phase = "p1-20-servers" -> Canary_small
    | Canary.Failed _ -> Canary_cluster
    | Canary.Passed -> Escaped

(* --- the end-to-end rejection ----------------------------------------- *)

let e2e_tree () =
  Core.Source_tree.of_alist
    [
      ( "schemas/job.thrift",
        {|
struct Job {
  1: required string name;
  2: optional i32 memory_mb = 1024;
}
|} );
      ( "modules/create_job.cinc",
        {|
import_thrift "schemas/job.thrift"
def create_job(name, memory = 1024) = Job { name = name, memory_mb = memory }
|} );
      ( "jobs/cache_job.cconf",
        {|
import "modules/create_job.cinc"
export create_job("cache", 1024)
|} );
    ]

let run_e2e () =
  let engine = Engine.create ~seed:7L () in
  let topo = Topology.create ~regions:1 ~clusters_per_region:2 ~nodes_per_cluster:40 in
  let net = Cm_sim.Net.create engine topo in
  let zeus = Cm_zeus.Service.create net in
  let registry = Cm_verify.Verify.standard () in
  (* The consumer's real limit, stricter than anything declared as a
     validator: the scheduler refuses jobs above 8 GB. *)
  Cm_verify.Verify.register_test registry ~name:"scheduler-accepts" ~prefix:"jobs/"
    (fun c ->
      match Cm_json.Value.member "memory_mb" c.Core.Compiler.json with
      | Some (Cm_json.Value.Int n) when n > 8192 ->
          Defense.finding ~ok:false ~at:c.Core.Compiler.artifact_path
            (Printf.sprintf "scheduler rejects memory_mb = %d (limit 8192)" n)
      | _ -> Defense.finding ~ok:true ~at:c.Core.Compiler.artifact_path "scheduler accepts");
  let pipeline =
    Pipeline.create ~verify:(Cm_verify.Verify.run registry) net zeus (e2e_tree ())
  in
  Pipeline.bootstrap pipeline;
  Pipeline.start pipeline;
  let outcome =
    Pipeline.propose_sync pipeline ~author:"dana" ~title:"bump cache memory"
      [ "jobs/cache_job.cconf",
        "import \"modules/create_job.cinc\"\nexport create_job(\"cache\", 99999)\n" ]
  in
  match outcome with
  | Pipeline.Rejected rejection ->
      let repair =
        List.find_map (fun v -> v.Defense.repair) (Defense.failures rejection.Defense.verdicts)
      in
      let posted =
        match Core.Review.get (Pipeline.review pipeline) 1 with
        | Some diff ->
            List.exists
              (fun v -> v.Defense.stage = "verify" && not v.Defense.passed)
              diff.Core.Review.test_results
        | None -> false
      in
      rejection.Defense.failed_stage, repair, posted
  | Pipeline.Landed _ -> "landed", None, false

(* --- the ablation ------------------------------------------------------ *)

let run () =
  Render.section "verify"
    "verify stage ablation: defense in depth with and without the correctness plane";
  let n = if quick then 300 else 1500 in
  let rng = Cm_sim.Rng.create 64L in
  let counts = Hashtbl.create 32 in
  let bump scenario stage etype =
    let key = scenario, stage, etype in
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  in
  for _ = 1 to n do
    let injected = Faults.inject rng Faults.default_rates in
    let canary =
      lazy
        (let engine = Engine.create ~seed:(Cm_sim.Rng.bits64 rng) () in
         let topo =
           Topology.create ~regions:2 ~clusters_per_region:2 ~nodes_per_cluster:100
         in
         Canary.run_sync engine topo ~sampler:injected.Faults.sampler)
    in
    (* Baseline first: it forces the canary for a superset of the
       with-verify scenario's needs, so the shared outcome is computed
       under a deterministic schedule. *)
    let base = classify ~with_verify:false ~canary injected in
    let withv = classify ~with_verify:true ~canary injected in
    bump `Base base injected.Faults.etype;
    bump `Verify withv injected.Faults.etype
  done;
  let count scenario stage etype =
    Option.value ~default:0 (Hashtbl.find_opt counts (scenario, stage, etype))
  in
  let row_total scenario stage =
    count scenario stage Faults.Type_i
    + count scenario stage Faults.Type_ii
    + count scenario stage Faults.Type_iii
  in
  let table scenario title =
    Render.note "%s" title;
    Render.table
      ~header:[ "caught at"; "Type I"; "Type II"; "Type III"; "total"; "share" ]
      (List.filter_map
         (fun stage ->
           if stage = Verify && scenario = `Base then None
           else
             Some
               [
                 stage_label stage;
                 string_of_int (count scenario stage Faults.Type_i);
                 string_of_int (count scenario stage Faults.Type_ii);
                 string_of_int (count scenario stage Faults.Type_iii);
                 string_of_int (row_total scenario stage);
                 Render.pctf (float_of_int (row_total scenario stage) /. float_of_int n);
               ])
         stages)
  in
  table `Base "without the verify stage (today's pipeline):";
  table `Verify "with the verify stage (validators -> verify -> review -> canaries):";
  let baseline_escaped = row_total `Base Escaped in
  let verify_escaped = row_total `Verify Escaped in
  let mix etype =
    Render.pctf
      (float_of_int (count `Base Escaped etype) /. float_of_int (max 1 baseline_escaped))
  in
  Render.table
    ~header:[ "escaped incident type, without verify"; "paper"; "measured" ]
    [
      [ "Type I: common config errors"; "42%"; mix Faults.Type_i ];
      [ "Type II: subtle config errors"; "36%"; mix Faults.Type_ii ];
      [ "Type III: valid config exposing code bugs"; "22%"; mix Faults.Type_iii ];
    ];
  (* The headline gate, scaled to n so the quick run checks the same
     claim: strictly fewer escapes than the 154/1500 baseline. *)
  let threshold = 154 * n / 1500 in
  Render.kv "escapes without verify" (Printf.sprintf "%d / %d" baseline_escaped n);
  Render.kv "escapes with verify" (Printf.sprintf "%d / %d" verify_escaped n);
  let e2e_stage, e2e_repair, e2e_posted = run_e2e () in
  Render.kv "end-to-end rejection stage" e2e_stage;
  Render.kv "end-to-end repair suggestion"
    (match e2e_repair with
    | Some r -> Printf.sprintf "%s: %s" r.Defense.origin r.Defense.note
    | None -> "<none>");
  Render.note
    "verify catches Type I errors whose invariant nobody declared as a validator and";
  Render.note
    "Type II errors a registered config test reproduces — before a reviewer sees the diff";
  let open Cm_json.Value in
  let rows scenario =
    List.filter_map
      (fun stage ->
        if stage = Verify && scenario = `Base then None
        else
          Some
            (Assoc
               [
                 "stage", String (stage_key stage);
                 "type_i", Int (count scenario stage Faults.Type_i);
                 "type_ii", Int (count scenario stage Faults.Type_ii);
                 "type_iii", Int (count scenario stage Faults.Type_iii);
                 "total", Int (row_total scenario stage);
               ]))
      stages
  in
  Render.write_json ~file:"BENCH_verify.json"
    (Assoc
       [
         "experiment", String "verify";
         "n", Int n;
         "baseline_escaped", Int baseline_escaped;
         "verify_escaped", Int verify_escaped;
         "escape_threshold", Int threshold;
         "baseline_rows", List (rows `Base);
         "verify_rows", List (rows `Verify);
         "e2e_caught_at", String e2e_stage;
         ( "e2e_repair_origin",
           match e2e_repair with Some r -> String r.Defense.origin | None -> Null );
       ])
    ~gates:
      [
        Render.gate "verify_escaped_vs_threshold" (float_of_int verify_escaped) Render.Lt
          (float_of_int threshold);
        Render.gate "verify_escaped_vs_baseline" (float_of_int verify_escaped) Render.Lt
          (float_of_int baseline_escaped);
        Render.holds "e2e_caught_at_verify" (e2e_stage = "verify");
        Render.holds "e2e_verdicts_on_review" e2e_posted;
      ]
