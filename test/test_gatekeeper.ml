module User = Cm_gatekeeper.User
module Restraint = Cm_gatekeeper.Restraint
module Project = Cm_gatekeeper.Project
module Runtime = Cm_gatekeeper.Runtime
module Rollout = Cm_gatekeeper.Rollout
module Experiment = Cm_gatekeeper.Experiment
module Laser = Cm_laser.Laser
module Exposure = Cm_gatekeeper.Exposure

let ctx = { Restraint.laser = None }
let user = User.make
let employee id = User.make ~employee:true id

let restraint_tests =
  [
    Alcotest.test_case "employee" `Quick (fun () ->
        let r = Restraint.make Restraint.Employee in
        Alcotest.(check bool) "yes" true (Restraint.eval ctx r (employee 1L));
        Alcotest.(check bool) "no" false (Restraint.eval ctx r (user 2L)));
    Alcotest.test_case "negate" `Quick (fun () ->
        let r = Restraint.make ~negate:true Restraint.Employee in
        Alcotest.(check bool) "negated" true (Restraint.eval ctx r (user 2L)));
    Alcotest.test_case "country and locale" `Quick (fun () ->
        let jp = Restraint.make (Restraint.Country [ "JP"; "KR" ]) in
        Alcotest.(check bool) "jp" true
          (Restraint.eval ctx jp (User.make ~country:"JP" 1L));
        Alcotest.(check bool) "us" false (Restraint.eval ctx jp (user 1L));
        let loc = Restraint.make (Restraint.Locale [ "en_US" ]) in
        Alcotest.(check bool) "locale" true (Restraint.eval ctx loc (user 1L)));
    Alcotest.test_case "device and platform" `Quick (fun () ->
        let dev = Restraint.make (Restraint.Device_model [ "iPhone6,1" ]) in
        Alcotest.(check bool) "device" true
          (Restraint.eval ctx dev (User.make ~device_model:"iPhone6,1" 1L));
        let plat = Restraint.make (Restraint.Platform [ User.Ios; User.Android ]) in
        Alcotest.(check bool) "web excluded" false (Restraint.eval ctx plat (user 1L));
        Alcotest.(check bool) "ios included" true
          (Restraint.eval ctx plat (User.make ~platform:User.Ios 1L)));
    Alcotest.test_case "app version bounds" `Quick (fun () ->
        let atleast = Restraint.make (Restraint.App_version_at_least 100) in
        Alcotest.(check bool) "100 ok" true (Restraint.eval ctx atleast (user 1L));
        Alcotest.(check bool) "99 no" false
          (Restraint.eval ctx atleast (User.make ~app_version:99 1L)));
    Alcotest.test_case "friends, new user" `Quick (fun () ->
        let minf = Restraint.make (Restraint.Min_friends 100) in
        Alcotest.(check bool) "50 friends" false (Restraint.eval ctx minf (user 1L));
        let newbie = Restraint.make (Restraint.New_user 30) in
        Alcotest.(check bool) "old account" false (Restraint.eval ctx newbie (user 1L));
        Alcotest.(check bool) "fresh account" true
          (Restraint.eval ctx newbie (User.make ~account_age_days:3 1L)));
    Alcotest.test_case "id_in and id_mod" `Quick (fun () ->
        let ids = Restraint.make (Restraint.Id_in [ 5L; 6L ]) in
        Alcotest.(check bool) "in" true (Restraint.eval ctx ids (user 5L));
        Alcotest.(check bool) "out" false (Restraint.eval ctx ids (user 7L));
        let slice = Restraint.make (Restraint.Id_mod (10, 3)) in
        Alcotest.(check bool) "13 mod 10 = 3" true (Restraint.eval ctx slice (user 13L));
        Alcotest.(check bool) "14 mod 10 = 4" false (Restraint.eval ctx slice (user 14L)));
    Alcotest.test_case "attr" `Quick (fun () ->
        let r = Restraint.make (Restraint.Attr_equals ("tier", "gold")) in
        Alcotest.(check bool) "match" true
          (Restraint.eval ctx r (User.make ~attrs:[ "tier", "gold" ] 1L));
        Alcotest.(check bool) "absent" false (Restraint.eval ctx r (user 1L)));
    Alcotest.test_case "laser restraint reads the store" `Quick (fun () ->
        let store = Laser.create () in
        Laser.put store "trend-42" 0.9;
        let laser_ctx = { Restraint.laser = Some store } in
        let r = Restraint.make (Restraint.Laser_above ("trend", 0.5)) in
        Alcotest.(check bool) "above" true (Restraint.eval laser_ctx r (user 42L));
        Alcotest.(check bool) "missing key" false (Restraint.eval laser_ctx r (user 43L));
        Alcotest.(check bool) "no store" false (Restraint.eval ctx r (user 42L)));
    Alcotest.test_case "laser integration via pipelines" `Quick (fun () ->
        let store = Laser.create () in
        Laser.stream_upsert store [ "p-1", 0.2; "p-2", 0.8 ];
        Laser.mapreduce_refresh store ~prefix:"p-" [ "p-1", 0.9 ];
        Alcotest.(check (option (float 1e-9))) "refreshed" (Some 0.9) (Laser.get store "p-1");
        Alcotest.(check (option (float 1e-9))) "dropped" None (Laser.get store "p-2"));
    Alcotest.test_case "laser restraint costs most" `Quick (fun () ->
        let cheap = Restraint.make Restraint.Employee in
        let pricey = Restraint.make (Restraint.Laser_above ("x", 0.0)) in
        Alcotest.(check bool) "ordering" true
          (Restraint.static_cost pricey > Restraint.static_cost cheap));
  ]

let project_tests =
  [
    Alcotest.test_case "DNF first matching rule wins" `Quick (fun () ->
        let project =
          Project.make ~name:"P"
            [
              Project.rule ~pass_prob:1.0 [ Restraint.make Restraint.Employee ];
              Project.rule ~pass_prob:0.0 [ Restraint.make Restraint.Always ];
            ]
        in
        Alcotest.(check bool) "employee passes" true
          (Project.check ctx project (employee 1L));
        Alcotest.(check bool) "world fails" false (Project.check ctx project (user 2L)));
    Alcotest.test_case "conjunction requires all restraints" `Quick (fun () ->
        let project =
          Project.make ~name:"P"
            [
              Project.rule
                [ Restraint.make Restraint.Employee;
                  Restraint.make (Restraint.Country [ "US" ]) ];
            ]
        in
        Alcotest.(check bool) "both" true (Project.check ctx project (employee 1L));
        Alcotest.(check bool) "employee elsewhere" false
          (Project.check ctx project (User.make ~employee:true ~country:"FR" 1L)));
    Alcotest.test_case "no rule matches means fail" `Quick (fun () ->
        let project = Project.make ~name:"P" [] in
        Alcotest.(check bool) "fail" false (Project.check ctx project (user 1L)));
    Alcotest.test_case "kill switch" `Quick (fun () ->
        let project =
          Project.make ~name:"P" [ Project.rule [ Restraint.make Restraint.Always ] ]
        in
        Alcotest.(check bool) "alive" true (Project.check ctx project (user 1L));
        let killed = Project.kill project in
        Alcotest.(check bool) "killed" false (Project.check ctx killed (user 1L));
        Alcotest.(check bool) "revived" true (Project.check ctx (Project.revive killed) (user 1L)));
    Alcotest.test_case "sampling fraction roughly honored" `Quick (fun () ->
        let project = Project.staged ~name:"Frac" ~employee_prob:0.0 ~world_prob:0.10 in
        let passing = ref 0 in
        for i = 1 to 20000 do
          if Project.check ctx project (user (Int64.of_int i)) then incr passing
        done;
        let rate = float_of_int !passing /. 20000.0 in
        Alcotest.(check bool) "~10%" true (Float.abs (rate -. 0.10) < 0.01));
    Alcotest.test_case "json round trip" `Quick (fun () ->
        let project =
          Project.make ~name:"RT"
            [
              Project.rule ~salt:"a" ~pass_prob:0.25
                [ Restraint.make ~negate:true (Restraint.Country [ "US" ]);
                  Restraint.make (Restraint.Min_friends 10) ];
              Project.rule ~salt:"b" ~pass_prob:1.0
                [ Restraint.make (Restraint.Laser_above ("t", 0.5)) ];
            ]
        in
        match Project.of_string (Project.to_string project) with
        | Ok back ->
            (* Behavior must be identical for a sample of users. *)
            for i = 1 to 500 do
              let u = user (Int64.of_int (i * 7)) in
              Alcotest.(check bool) "same decision"
                (Project.check ctx project u)
                (Project.check ctx back u)
            done
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "pass_prob out of range rejected" `Quick (fun () ->
        match Project.of_string {|{"project":"x","rules":[{"restraints":[],"pass_prob":1.5}]}|} with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
  ]

(* The launch property: expanding a rollout keeps already-enabled users. *)
let sticky_rollout_property =
  QCheck2.Test.make ~name:"rollout expansion is monotone per user" ~count:200
    QCheck2.Gen.(pair (int_range 1 1000000) (pair (float_range 0.0 0.5) (float_range 0.5 1.0)))
    (fun (uid, (small, large)) ->
      let p_small = Project.staged ~name:"Mono" ~employee_prob:0.0 ~world_prob:small in
      let p_large = Project.staged ~name:"Mono" ~employee_prob:0.0 ~world_prob:large in
      let u = user (Int64.of_int uid) in
      (not (Project.check ctx p_small u)) || Project.check ctx p_large u)

let gen_restraint =
  let open QCheck2.Gen in
  let base =
    oneof
      [
        pure Restraint.Employee;
        map (fun cs -> Restraint.Country cs)
          (list_size (int_range 1 3) (oneofl [ "US"; "JP"; "BR"; "DE" ]));
        map (fun n -> Restraint.Min_friends n) (int_range 0 1000);
        map (fun n -> Restraint.Max_friends n) (int_range 0 1000);
        map (fun d -> Restraint.New_user d) (int_range 1 1000);
        map2 (fun n r -> Restraint.Id_mod (n, r mod n)) (int_range 1 50) (int_range 0 49);
        map (fun v -> Restraint.App_version_at_least v) (int_range 50 150);
        pure Restraint.Always;
      ]
  in
  map2 (fun negate kind -> Restraint.make ~negate kind) bool base

let gen_project =
  let open QCheck2.Gen in
  let rule =
    map2
      (fun restraints prob -> Project.rule ~pass_prob:prob restraints)
      (list_size (int_range 0 4) gen_restraint)
      (float_range 0.0 1.0)
  in
  map (fun rules -> Project.make ~name:"Gen" rules) (list_size (int_range 0 4) rule)

let json_roundtrip_property =
  QCheck2.Test.make ~name:"project JSON round-trip preserves decisions" ~count:200
    QCheck2.Gen.(pair gen_project (int_range 1 1000000))
    (fun (project, uid) ->
      match Project.of_string (Project.to_string project) with
      | Error _ -> false
      | Ok back ->
          let u = User.random (Cm_sim.Rng.create (Int64.of_int uid)) in
          Project.check ctx project u = Project.check ctx back u)

let optimized_equiv_property =
  QCheck2.Test.make ~name:"optimized check == naive check" ~count:200
    QCheck2.Gen.(pair gen_project (int_range 1 100))
    (fun (project, nusers) ->
      let fast = Runtime.create () in
      let slow = Runtime.create () in
      Runtime.load fast project;
      Runtime.load slow project;
      let rng = Cm_sim.Rng.create 77L in
      let ok = ref true in
      for _ = 1 to nusers do
        let u = User.random rng in
        (* Interleave to exercise stat-driven reordering. *)
        if Runtime.check fast "Gen" u <> Runtime.check_naive slow "Gen" u then ok := false
      done;
      !ok)

(* The production mix of paper Figure 15: employee gates, staged
   rollouts, country gates, device experiments and sliced rollouts. *)
let production_mix () =
  List.init 50 (fun i ->
      let name = Printf.sprintf "proj_%02d" i in
      match i mod 5 with
      | 0 -> Project.employee_rollout ~name ~prob:0.1
      | 1 -> Project.staged ~name ~employee_prob:1.0 ~world_prob:0.01
      | 2 ->
          Project.make ~name
            [
              Project.rule ~pass_prob:0.5
                [ Restraint.make (Restraint.Country [ "JP"; "BR" ]);
                  Restraint.make (Restraint.App_version_at_least 95) ];
            ]
      | 3 ->
          Project.make ~name
            [
              Project.rule
                [ Restraint.make (Restraint.Platform [ User.Ios ]);
                  Restraint.make (Restraint.Device_model [ "iPhone6,1"; "iPhone7,2" ]) ];
              Project.rule ~pass_prob:0.02 [ Restraint.make Restraint.Always ];
            ]
      | _ ->
          Project.make ~name
            [
              Project.rule
                [ Restraint.make (Restraint.Id_mod (100, i));
                  Restraint.make (Restraint.Min_friends 10) ];
            ])

let runtime_tests =
  [
    Alcotest.test_case "unknown project fails closed" `Quick (fun () ->
        let runtime = Runtime.create () in
        Alcotest.(check bool) "false" false (Runtime.check runtime "nope" (user 1L)));
    Alcotest.test_case "load_json installs project" `Quick (fun () ->
        let runtime = Runtime.create () in
        let project = Project.staged ~name:"FromJson" ~employee_prob:1.0 ~world_prob:0.0 in
        (match Runtime.load_json runtime (Project.to_json project) with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        Alcotest.(check bool) "works" true (Runtime.check runtime "FromJson" (employee 1L)));
    Alcotest.test_case "live config update changes behavior" `Quick (fun () ->
        let runtime = Runtime.create () in
        Runtime.load runtime (Project.staged ~name:"Live" ~employee_prob:0.0 ~world_prob:0.0);
        Alcotest.(check bool) "off" false (Runtime.check runtime "Live" (user 1L));
        Runtime.load runtime (Project.staged ~name:"Live" ~employee_prob:0.0 ~world_prob:1.0);
        Alcotest.(check bool) "on" true (Runtime.check runtime "Live" (user 1L)));
    Alcotest.test_case "cost-based ordering reduces evaluated cost" `Quick (fun () ->
        (* An expensive always-true restraint before a cheap rarely-true
           one: the optimizer should flip them. *)
        let expensive_first =
          Project.make ~name:"Opt"
            [
              Project.rule
                [
                  Restraint.make (Restraint.Laser_above ("x", 0.5));
                  Restraint.make Restraint.Employee;
                ];
            ]
        in
        let store = Laser.create () in
        let laser_ctx = { Restraint.laser = Some store } in
        (* Laser lookups miss -> false, but they cost 25 each; employee
           is false for ~everyone and costs 1. *)
        let run_with projects use_optimizer =
          let runtime = Runtime.create ~ctx:laser_ctx ~reoptimize_every:256 () in
          List.iter (Runtime.load runtime) projects;
          let names = Array.of_list (List.map (fun p -> p.Project.project_name) projects) in
          let rng = Cm_sim.Rng.create 5L in
          for i = 0 to 3999 do
            let u = User.random rng and name = names.(i mod Array.length names) in
            ignore
              (if use_optimizer then Runtime.check runtime name u
               else Runtime.check_naive runtime name u)
          done;
          Runtime.evaluated_cost runtime
        in
        let below label projects ~factor =
          let optimized = run_with projects true and naive = run_with projects false in
          Alcotest.(check bool)
            (Printf.sprintf "%s: optimized %.0f < naive %.0f x %.1f" label optimized naive
               factor)
            true
            (optimized < naive *. factor)
        in
        below "expensive first" [ expensive_first ] ~factor:0.5;
        (* Mostly cheap restraints: the saving is about 1%, but strict. *)
        below "production mix" (production_mix ()) ~factor:1.0);
    Alcotest.test_case "loads publish snapshots, checks run on one domain" `Quick (fun () ->
        let runtime = Runtime.create () in
        Alcotest.(check int) "no swaps yet" 0 (Runtime.snapshot_swaps runtime);
        Runtime.load runtime (Project.staged ~name:"A" ~employee_prob:1.0 ~world_prob:0.0);
        Runtime.load runtime (Project.staged ~name:"B" ~employee_prob:1.0 ~world_prob:0.0);
        Runtime.unload runtime "B";
        Alcotest.(check int) "three publishes" 3 (Runtime.snapshot_swaps runtime);
        Alcotest.(check int) "unload removed it" 1 (List.length (Runtime.project_names runtime));
        (* Unloading a project that isn't there publishes nothing. *)
        Runtime.unload runtime "B";
        Alcotest.(check int) "no-op unload" 3 (Runtime.snapshot_swaps runtime);
        ignore (Runtime.check runtime "A" (employee 1L));
        Alcotest.(check int) "single-domain path" 1 (Runtime.domains_seen runtime));
    Alcotest.test_case "check-time exposures feed variant aggregation" `Quick (fun () ->
        let clock = ref 0.0 in
        let log = Exposure.Log.create () in
        let runtime =
          Runtime.create ~clock:(fun () -> !clock) ~exposures:log ()
        in
        Runtime.load runtime (Project.staged ~name:"Exp" ~employee_prob:1.0 ~world_prob:0.0);
        for i = 1 to 10 do
          clock := float_of_int i;
          ignore (Runtime.check runtime "Exp" (employee (Int64.of_int i)));
          ignore (Runtime.check runtime "Exp" (user (Int64.of_int (100 + i))))
        done;
        Alcotest.(check int) "one record per check" 20 (Exposure.Log.length log);
        let records = Exposure.of_source "Exp" (Exposure.Log.drain log) in
        (match Exposure.by_variant records with
        | [ ("fail", 10, _); ("pass", 10, _) ] -> ()
        | _ -> Alcotest.fail "expected 10 pass / 10 fail");
        (* Windowed view: 10 windows of width 2 hold 2 records each. *)
        let windows = Exposure.by_window ~window:2.0 records in
        Alcotest.(check bool) "each window bounded" true
          (List.for_all (fun (_, _, n, _) -> n <= 2) windows));
    Alcotest.test_case "stats exposed" `Quick (fun () ->
        let runtime = Runtime.create () in
        Runtime.load runtime (Project.staged ~name:"S" ~employee_prob:1.0 ~world_prob:0.5);
        let rng = Cm_sim.Rng.create 6L in
        for _ = 1 to 100 do
          ignore (Runtime.check runtime "S" (User.random rng))
        done;
        Alcotest.(check int) "checks" 100 (Runtime.checks_performed runtime);
        Alcotest.(check bool) "stats nonempty" true
          (List.length (Runtime.restraint_stats runtime "S") > 0));
  ]

let rollout_tests =
  [
    Alcotest.test_case "launch plan shape" `Quick (fun () ->
        let stages = Rollout.launch_plan ~name:"F" ~developer_ids:[ 1L ] () in
        (* dev + 3 employee + 1 region + 3 world *)
        Alcotest.(check int) "8 stages" 8 (List.length stages));
    Alcotest.test_case "stages are monotone for a fixed population" `Quick (fun () ->
        let rng = Cm_sim.Rng.create 30L in
        let users = List.init 4000 (fun _ -> User.random rng) in
        let stages = Rollout.launch_plan ~name:"Mono2" () in
        let fractions =
          List.map
            (fun stage -> Rollout.enabled_fraction ctx stage.Rollout.project ~users)
            stages
        in
        let rec monotone = function
          | a :: (b :: _ as rest) -> a <= b +. 1e-9 && monotone rest
          | [ _ ] | [] -> true
        in
        Alcotest.(check bool) "each stage covers at least the previous" true
          (monotone fractions);
        Alcotest.(check bool) "final is everyone" true
          (List.nth fractions (List.length fractions - 1) > 0.999));
    Alcotest.test_case "employee stages gate only employees" `Quick (fun () ->
        let stages = Rollout.launch_plan ~name:"Emp" () in
        let first = List.hd stages in
        Alcotest.(check bool) "non-employee off" false
          (Project.check ctx first.Rollout.project (user 99L)));
    Alcotest.test_case "kill stage disables" `Quick (fun () ->
        let killed = Rollout.kill_stage ~name:"F" in
        Alcotest.(check bool) "off" false
          (Project.check ctx killed.Rollout.project (employee 1L)));
  ]

let experiment_tests =
  [
    Alcotest.test_case "assignment sticky" `Quick (fun () ->
        let exp =
          Experiment.create ~name:"echo"
            [
              { Experiment.variant_name = "a"; weight = 1.0; param = Cm_json.Value.Int 1 };
              { Experiment.variant_name = "b"; weight = 1.0; param = Cm_json.Value.Int 2 };
            ]
        in
        let u = user 123L in
        let v1 = Experiment.assign ctx exp u and v2 = Experiment.assign ctx exp u in
        Alcotest.(check bool) "same" true
          (match v1, v2 with
          | Some a, Some b -> a.Experiment.variant_name = b.Experiment.variant_name
          | _ -> false));
    Alcotest.test_case "weights roughly honored" `Quick (fun () ->
        let exp =
          Experiment.create ~name:"w"
            [
              { Experiment.variant_name = "a"; weight = 3.0; param = Cm_json.Value.Null };
              { Experiment.variant_name = "b"; weight = 1.0; param = Cm_json.Value.Null };
            ]
        in
        let a = ref 0 and total = 10000 in
        for i = 1 to total do
          match Experiment.assign ctx exp (user (Int64.of_int i)) with
          | Some v when v.Experiment.variant_name = "a" -> incr a
          | Some _ | None -> ()
        done;
        let share = float_of_int !a /. float_of_int total in
        Alcotest.(check bool) "~75%" true (Float.abs (share -. 0.75) < 0.02));
    Alcotest.test_case "eligibility filters" `Quick (fun () ->
        let exp =
          Experiment.create ~name:"ios-only"
            ~eligibility:[ Restraint.make (Restraint.Platform [ User.Ios ]) ]
            [ { Experiment.variant_name = "x"; weight = 1.0; param = Cm_json.Value.Null } ]
        in
        Alcotest.(check bool) "web excluded" true (Experiment.assign ctx exp (user 1L) = None);
        Alcotest.(check bool) "ios included" true
          (Experiment.assign ctx exp (User.make ~platform:User.Ios 1L) <> None));
    Alcotest.test_case "exposure caps enrollment" `Quick (fun () ->
        let exp =
          Experiment.create ~name:"small" ~exposure:0.1
            [ { Experiment.variant_name = "x"; weight = 1.0; param = Cm_json.Value.Null } ]
        in
        let enrolled = ref 0 in
        for i = 1 to 10000 do
          if Experiment.assign ctx exp (user (Int64.of_int i)) <> None then incr enrolled
        done;
        let rate = float_of_int !enrolled /. 10000.0 in
        Alcotest.(check bool) "~10%" true (Float.abs (rate -. 0.1) < 0.02));
    Alcotest.test_case "results and best" `Quick (fun () ->
        let variant_a =
          { Experiment.variant_name = "a"; weight = 1.0; param = Cm_json.Value.Int 1 }
        in
        let variant_b =
          { Experiment.variant_name = "b"; weight = 1.0; param = Cm_json.Value.Int 2 }
        in
        let exp = Experiment.create ~name:"r" [ variant_a; variant_b ] in
        Experiment.record exp (user 1L) variant_a 0.5;
        Experiment.record exp (user 2L) variant_a 0.7;
        Experiment.record exp (user 3L) variant_b 0.9;
        (match Experiment.best exp ~higher_is_better:true with
        | Some v -> Alcotest.(check string) "b wins" "b" v.Experiment.variant_name
        | None -> Alcotest.fail "no winner");
        match Experiment.best exp ~higher_is_better:false with
        | Some v -> Alcotest.(check string) "a wins low" "a" v.Experiment.variant_name
        | None -> Alcotest.fail "no winner");
    Alcotest.test_case "segment and window analysis from logged exposures" `Quick (fun () ->
        let variant_a =
          { Experiment.variant_name = "a"; weight = 1.0; param = Cm_json.Value.Int 1 }
        in
        let variant_b =
          { Experiment.variant_name = "b"; weight = 1.0; param = Cm_json.Value.Int 2 }
        in
        let exp = Experiment.create ~name:"seg" [ variant_a; variant_b ] in
        let log = Exposure.Log.create () in
        (* Outcomes: arm [a] scores 1.0 in JP and 0.0 in US; arm [b]
           scores 0.5 everywhere; exposures spread over two windows. *)
        let n = ref 0 in
        for i = 1 to 400 do
          let country = if i mod 2 = 0 then "JP" else "US" in
          let u = User.make ~country (Int64.of_int i) in
          let now = if i <= 200 then 10.0 else 70.0 in
          match Experiment.assign_logged ctx exp log ~now u with
          | None -> ()
          | Some v ->
              incr n;
              let outcome =
                if v.Experiment.variant_name = "b" then 0.5
                else if country = "JP" then 1.0
                else 0.0
              in
              Experiment.observe exp log ~now u v outcome
        done;
        Alcotest.(check bool) "everyone enrolled" true (!n = 400);
        let records = Experiment.exposures exp log in
        (* assign + observe both log: 2 records per user. *)
        Alcotest.(check int) "two records per user" 800 (List.length records);
        let segs = Exposure.by_segment records in
        let mean_of variant segment =
          match
            List.find_opt (fun (v, s, _, _) -> v = variant && s = segment) segs
          with
          | Some (_, _, _, m) -> m
          | None -> nan
        in
        Alcotest.(check (float 1e-9)) "a in JP" 1.0 (mean_of "a" "JP");
        Alcotest.(check (float 1e-9)) "a in US" 0.0 (mean_of "a" "US");
        Alcotest.(check (float 1e-9)) "b in JP" 0.5 (mean_of "b" "JP");
        (* Two one-minute windows. *)
        let windows = Exposure.by_window ~window:60.0 records in
        let wins = List.sort_uniq compare (List.map (fun (_, w, _, _) -> w) windows) in
        Alcotest.(check (list int)) "windows 0 and 1" [ 0; 1 ] wins;
        (* Lift of a vs control b: a's mean is 0.5 in expectation but
           depends on the arm's JP/US split; just check it's reported. *)
        Alcotest.(check bool) "lift reported" true
          (List.mem_assoc "a" (Exposure.lift records ~control:"b")));
    Alcotest.test_case "json round trip" `Quick (fun () ->
        let exp =
          Experiment.create ~name:"rt" ~exposure:0.5
            ~eligibility:[ Restraint.make (Restraint.Country [ "JP" ]) ]
            [ { Experiment.variant_name = "x"; weight = 2.0; param = Cm_json.Value.Float 1.5 } ]
        in
        match Experiment.of_json (Experiment.to_json exp) with
        | Ok back ->
            let u = User.make ~country:"JP" 55L in
            Alcotest.(check bool) "same assignment" true
              ((Experiment.assign ctx exp u = None)
              = (Experiment.assign ctx back u = None))
        | Error e -> Alcotest.fail e);
  ]

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ sticky_rollout_property; json_roundtrip_property; optimized_equiv_property ]

let () =
  Alcotest.run "cm_gatekeeper"
    [
      "restraints", restraint_tests;
      "projects", project_tests;
      "runtime", runtime_tests;
      "rollout", rollout_tests;
      "experiments", experiment_tests;
      "properties", properties;
    ]
