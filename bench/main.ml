(* Experiment harness: regenerates every table and figure of the
   paper's evaluation (§6) plus the design-choice ablations.

     dune exec bench/main.exe                         # everything
     dune exec bench/main.exe -- --list               # experiment ids
     dune exec bench/main.exe -- --only fig14         # one experiment
     dune exec bench/main.exe -- --quick --only gk    # reduced scale  *)

let experiments : (string * string * (unit -> unit)) list =
  [
    "fig7", "config population growth", Exp_usage.fig7;
    "fig8", "config size CDF", Exp_usage.fig8;
    "fig9", "config freshness CDF", Exp_usage.fig9;
    "fig10", "age at update CDF", Exp_usage.fig10;
    "tab1", "updates per config", Exp_usage.tab1;
    "tab2", "line changes per update", Exp_usage.tab2;
    "tab3", "co-authors per config", Exp_usage.tab3;
    "fig11", "daily commit throughput", Exp_commits.fig11;
    "fig12", "hourly commit throughput", Exp_commits.fig12;
    "fig14", "commit-to-fleet propagation latency (simulated)", Exp_fig14.run;
    "gk", "Gatekeeper checks/s per core (fig15) and multicore scaling under churn", Exp_gk.run;
    "build", "multicore landing path: parallel compile + verify + sandcastle", Exp_build.run;
    "verify", "incident type mix (tab4) and escapes with/without the verify stage", Exp_verify.run;
    "pv", "PackageVessel distribution", Exp_pv.run;
    "ablate-pushpull", "push vs pull distribution", Exp_ablate.push_pull;
    "ablate-gkopt", "Gatekeeper optimizer", Exp_ablate.gk_optimizer;
    "ablate-landing", "landing strip vs direct commits", Exp_ablate.landing;
    "ablate-mobile", "mobile hybrid pull+push", Exp_ablate.mobile;
    "dist", "distribution plane: dedup + batched fan-out vs legacy", Exp_dist.run;
    "vcs", "commit throughput vs repo size (fig13): flat vs merkle backend sweep", Exp_vcs.run;
    "store", "durable store: pack recovery, generations, GC, crash convergence", Exp_store.run;
    "trace", "end-to-end change tracing: per-hop latency breakdown", Exp_trace.run;
    "fleet", "fleet-scale simulation: 100k servers / 1M devices diurnal day", Exp_fleet.run;
    "micro", "Bechamel microbenchmarks", Exp_micro.run;
  ]

(* Run each experiment in turn; one that fails (a failed gate, or any
   exception) does not stop the ones after it.  At the end every
   failure is listed and the process exits non-zero. *)
let run_all selected =
  let failures =
    List.filter_map
      (fun (id, _, run) ->
        match run () with
        | () -> None
        | exception e -> Some (id, Printexc.to_string e))
      selected
  in
  if failures <> [] then begin
    Printf.eprintf "\n%d experiment(s) failed:\n" (List.length failures);
    List.iter (fun (id, reason) -> Printf.eprintf "  %s: %s\n" id reason) failures;
    exit 1
  end

let () =
  let args = List.filter (( <> ) "--quick") (Array.to_list Sys.argv) in
  match args with
  | _ :: "--list" :: _ ->
      List.iter (fun (id, title, _) -> Printf.printf "%-16s %s\n" id title) experiments
  | _ :: "--only" :: ids ->
      let unknown = List.filter (fun id -> not (List.exists (fun (i, _, _) -> i = id) experiments)) ids in
      if unknown <> [] then begin
        Printf.eprintf "unknown experiment(s): %s\n" (String.concat ", " unknown);
        exit 1
      end;
      run_all (List.filter (fun (id, _, _) -> List.mem id ids) experiments)
  | _ ->
      print_endline "Holistic Configuration Management (SOSP'15) - evaluation reproduction";
      print_endline "Paper values are quoted next to measured/simulated values.";
      run_all experiments;
      print_endline "\nAll experiments complete. See EXPERIMENTS.md for the index."
