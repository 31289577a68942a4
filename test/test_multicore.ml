(* Multicore behavior of the Gatekeeper runtime and the Laser store:
   lock-free snapshot reads under live config churn.

   - a reader interleaved with [mapreduce_refresh] never observes a
     missing key that exists in both the old and the new batch (the
     refresh publishes as one atomic root swap);
   - racing feeder pipelines lose no updates (CAS retry);
   - Laser agrees with a [Map] model after every put, upsert and
     refresh (QCheck property), and its read count is exact once the
     reader domains are joined;
   - N-domain [check] decides exactly like single-domain [check] and
     [check_naive] (QCheck property);
   - per-domain statistics merged across N domains equal the
     sequential run's (exact for naive-order runs, which never
     reorder);
   - concurrent [load] is never observed torn and becomes visible;
   - a replaced project is garbage once no reader holds it, even after
     a reader domain checked against it and exited. *)

module User = Cm_gatekeeper.User
module Restraint = Cm_gatekeeper.Restraint
module Project = Cm_gatekeeper.Project
module Runtime = Cm_gatekeeper.Runtime
module Exposure = Cm_gatekeeper.Exposure
module Laser = Cm_laser.Laser

let user = User.make

(* --- Laser ------------------------------------------------------------ *)

let laser_tests =
  [
    Alcotest.test_case "refresh is atomic under a concurrent reader" `Quick (fun () ->
        let store = Laser.create () in
        (* Keys present in every batch: a reader must never see them
           missing, no matter how it interleaves with the refresh. *)
        let common = List.init 64 (fun i -> Printf.sprintf "mr-k%02d" i) in
        let batch v = List.map (fun k -> k, v) common in
        Laser.mapreduce_refresh store ~prefix:"mr-" (batch 1.0);
        let stop = Atomic.make false in
        let missing = Atomic.make 0 in
        let looked = Atomic.make 0 in
        let reader =
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                List.iter
                  (fun k ->
                    Atomic.incr looked;
                    if Laser.get store k = None then Atomic.incr missing)
                  common
              done)
        in
        for round = 2 to 150 do
          (* Each refresh also rotates a batch-only key, so batches
             really differ. *)
          let extra = Printf.sprintf "mr-only-%d" round, float_of_int round in
          Laser.mapreduce_refresh store ~prefix:"mr-" (extra :: batch (float_of_int round))
        done;
        Atomic.set stop true;
        Domain.join reader;
        Alcotest.(check int) "no common key ever missing" 0 (Atomic.get missing);
        Alcotest.(check bool) "reader made progress" true (Atomic.get looked > 0);
        (* Old batch-only keys were dropped, the last one retained. *)
        Alcotest.(check (option (float 1e-9))) "last extra present" (Some 150.0)
          (Laser.get store "mr-only-150");
        Alcotest.(check (option (float 1e-9))) "stale extra dropped" None
          (Laser.get store "mr-only-149"));
    Alcotest.test_case "racing feeders lose no updates" `Quick (fun () ->
        let store = Laser.create () in
        let writer lo =
          Domain.spawn (fun () ->
              for i = lo to lo + 499 do
                Laser.stream_upsert store
                  [ Printf.sprintf "k%05d" i, float_of_int i;
                    Printf.sprintf "j%05d" i, float_of_int (-i) ]
              done)
        in
        let a = writer 0 and b = writer 1000 in
        Domain.join a;
        Domain.join b;
        Alcotest.(check int) "all keys present" 2000 (Laser.size store);
        Alcotest.(check (option (float 1e-9))) "spot a" (Some 17.0) (Laser.get store "k00017");
        Alcotest.(check (option (float 1e-9))) "spot b" (Some 1499.0) (Laser.get store "k01499");
        Alcotest.(check bool) "every publish bumped the generation" true
          (Laser.generation store >= 1000));
    Alcotest.test_case "shards cover the keyspace" `Quick (fun () ->
        (* Kept under its old name: the store is one map now, and the
           property is that a refresh of one prefix leaves the rest of
           the keyspace whole. *)
        let store = Laser.create () in
        let key i = Printf.sprintf "%s-%d" (if i mod 4 = 0 then "mr" else "key") i in
        Laser.stream_upsert store (List.init 400 (fun i -> key i, 1.0));
        Alcotest.(check int) "every key stored" 400 (Laser.size store);
        Laser.mapreduce_refresh store ~prefix:"mr-" [ "mr-new", 2.0 ];
        Alcotest.(check int) "100 dropped, 1 loaded" 301 (Laser.size store);
        for i = 0 to 399 do
          if i mod 4 <> 0 then
            Alcotest.(check (option (float 1e-9))) (key i) (Some 1.0) (Laser.get store (key i))
        done;
        Alcotest.(check (option (float 1e-9))) "refreshed key" (Some 2.0)
          (Laser.get store "mr-new"));
    Alcotest.test_case "reads are exact once the readers are joined" `Quick (fun () ->
        let store = Laser.create () in
        Laser.put store "k" 1.0;
        let readers =
          List.init 4 (fun _ ->
              Domain.spawn (fun () ->
                  for _ = 1 to 10_000 do
                    ignore (Laser.get store "k")
                  done))
        in
        List.iter Domain.join readers;
        Alcotest.(check int) "4 x 10000 reads" 40_000 (Laser.reads store));
  ]

(* Random put / upsert / refresh sequences against a [Map] model: after
   every operation each key reads back as in the model, [size] agrees,
   and [generation] counts the publishes (an empty upsert publishes
   nothing). *)
module Model = Map.Make (String)

type laser_op =
  | Put of string * float
  | Upsert of (string * float) list
  | Refresh of string * (string * float) list

let laser_model =
  let open QCheck2.Gen in
  let keys = List.concat_map (fun p -> List.init 4 (Printf.sprintf "%s%d" p)) [ "a-"; "b-"; "ab" ] in
  let pair = pair (oneofl keys) (map float_of_int (int_range 0 9)) in
  let op =
    oneof
      [
        map (fun (k, v) -> Put (k, v)) pair;
        map (fun pairs -> Upsert pairs) (list_size (int_range 0 4) pair);
        map2 (fun prefix pairs -> Refresh (prefix, pairs))
          (oneofl [ "a-"; "a"; "b-"; "" ])
          (list_size (int_range 0 4) pair);
      ]
  in
  QCheck2.Test.make ~name:"Laser agrees with a Map model" ~count:200
    (list_size (int_range 1 30) op)
    (fun ops ->
      let store = Laser.create () in
      let add_all pairs model = List.fold_left (fun m (k, v) -> Model.add k v m) model pairs in
      let step (model, gen) = function
        | Put (k, v) ->
            Laser.put store k v;
            Model.add k v model, gen + 1
        | Upsert pairs ->
            Laser.stream_upsert store pairs;
            add_all pairs model, if pairs = [] then gen else gen + 1
        | Refresh (prefix, pairs) ->
            Laser.mapreduce_refresh store ~prefix pairs;
            ( add_all pairs (Model.filter (fun k _ -> not (String.starts_with ~prefix k)) model),
              gen + 1 )
      in
      let agrees (model, gen) =
        List.for_all (fun k -> Laser.get store k = Model.find_opt k model) keys
        && Laser.size store = Model.cardinal model
        && Laser.generation store = gen
      in
      let rec run state = function
        | [] -> true
        | op :: rest ->
            let state = step state op in
            agrees state && run state rest
      in
      run (Model.empty, 0) ops)

(* --- Runtime: equivalence across domains ------------------------------ *)

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
  map (fun rules -> Project.make ~name:"Gen" rules) (list_size (int_range 1 4) rule)

(* Decisions of [check] partitioned over [ndomains] equal sequential
   [check] and [check_naive] over the same users — under concurrent
   stat accumulation and reoptimization publishes. *)
let multicore_equivalence =
  QCheck2.Test.make ~name:"N-domain check == sequential check == naive" ~count:30
    QCheck2.Gen.(triple gen_project (int_range 2 4) (int_range 40 120))
    (fun (project, ndomains, nusers) ->
      let rng = Cm_sim.Rng.create 91L in
      let users = Array.init nusers (fun _ -> User.random rng) in
      let sequential = Runtime.create ~reoptimize_every:16 () in
      Runtime.load sequential project;
      let expected = Array.map (fun u -> Runtime.check sequential "Gen" u) users in
      let naive = Runtime.create () in
      Runtime.load naive project;
      let expected_naive = Array.map (fun u -> Runtime.check_naive naive "Gen" u) users in
      let parallel = Runtime.create ~reoptimize_every:16 () in
      Runtime.load parallel project;
      let got = Array.make nusers false in
      let workers =
        List.init ndomains (fun d ->
            Domain.spawn (fun () ->
                let i = ref d in
                while !i < nusers do
                  got.(!i) <- Runtime.check parallel "Gen" users.(!i);
                  i := !i + ndomains
                done))
      in
      List.iter Domain.join workers;
      expected = got && expected_naive = got)

(* Naive-order runs never reorder, so the merged cross-domain stats
   must equal the sequential run's exactly (selectivities included). *)
let stats_merge_exact =
  QCheck2.Test.make ~name:"merged N-domain naive stats == sequential stats" ~count:30
    QCheck2.Gen.(triple gen_project (int_range 2 4) (int_range 40 120))
    (fun (project, ndomains, nusers) ->
      let rng = Cm_sim.Rng.create 17L in
      let users = Array.init nusers (fun _ -> User.random rng) in
      let run_sequential () =
        let runtime = Runtime.create () in
        Runtime.load runtime project;
        Array.iter (fun u -> ignore (Runtime.check_naive runtime "Gen" u)) users;
        runtime
      in
      let run_parallel () =
        let runtime = Runtime.create () in
        Runtime.load runtime project;
        let workers =
          List.init ndomains (fun d ->
              Domain.spawn (fun () ->
                  let i = ref d in
                  while !i < nusers do
                    ignore (Runtime.check_naive runtime "Gen" users.(!i));
                    i := !i + ndomains
                  done))
        in
        List.iter Domain.join workers;
        runtime
      in
      let a = run_sequential () and b = run_parallel () in
      Runtime.restraint_stats a "Gen" = Runtime.restraint_stats b "Gen"
      && Runtime.evaluated_restraints a = Runtime.evaluated_restraints b
      && Runtime.checks_performed a = Runtime.checks_performed b
      && Float.abs (Runtime.evaluated_cost a -. Runtime.evaluated_cost b) < 1e-6)

(* --- Runtime: live updates under concurrent readers ------------------- *)

(* Load [n] versions of project [name], keeping each only through a
   weak pointer.  Not inlined, so no stack slot of the caller holds a
   project. *)
let[@inline never] load_weakly runtime ~name n =
  let loaded = Weak.create n in
  for i = 0 to n - 1 do
    let project =
      Project.staged ~name ~employee_prob:0.0 ~world_prob:(float_of_int (i + 1) /. float_of_int n)
    in
    Weak.set loaded i (Some project);
    Runtime.load runtime project
  done;
  loaded

let runtime_tests =
  [
    Alcotest.test_case "live load visible to a concurrent reader" `Quick (fun () ->
        let runtime = Runtime.create () in
        Runtime.load runtime (Project.staged ~name:"Live" ~employee_prob:0.0 ~world_prob:0.0);
        let stop = Atomic.make false in
        let seen_on = Atomic.make false and seen_off = Atomic.make false in
        let u = user 7L in
        let reader =
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                if Runtime.check runtime "Live" u then Atomic.set seen_on true
                else Atomic.set seen_off true
              done)
        in
        for _ = 1 to 60 do
          Runtime.load runtime (Project.staged ~name:"Live" ~employee_prob:0.0 ~world_prob:1.0);
          Runtime.load runtime (Project.staged ~name:"Live" ~employee_prob:0.0 ~world_prob:0.0)
        done;
        (* Rest in each state until the reader reports it: on a 1-core
           host the reader may miss every transient flip, but a
           published state that stays put must become visible. *)
        let await flag =
          let deadline = Unix.gettimeofday () +. 5.0 in
          while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
            Domain.cpu_relax ()
          done
        in
        await seen_off;
        Runtime.load runtime (Project.staged ~name:"Live" ~employee_prob:0.0 ~world_prob:1.0);
        await seen_on;
        Atomic.set stop true;
        Domain.join reader;
        Alcotest.(check bool) "saw the gate on" true (Atomic.get seen_on);
        Alcotest.(check bool) "saw the gate off" true (Atomic.get seen_off));
    Alcotest.test_case "epoch accounting: retired + reclaimed = swaps" `Quick (fun () ->
        (* Kept under its old name: a publish is one atomic store, and
           every replaced project is garbage once the next one is in. *)
        let runtime = Runtime.create () in
        let loaded = load_weakly runtime ~name:"E" 10 in
        ignore (Runtime.check runtime "E" (user 1L));
        Alcotest.(check int) "10 publishes" 10 (Runtime.snapshot_swaps runtime);
        Gc.full_major ();
        Alcotest.(check (list bool)) "only the current project is reachable"
          (List.init 10 (fun i -> i = 9))
          (List.init 10 (fun i -> Weak.check loaded i));
        Alcotest.(check (list string)) "still served" [ "E" ] (Runtime.project_names runtime));
    Alcotest.test_case "reader epoch pins a snapshot until it advances" `Quick (fun () ->
        (* Kept under its old name: no reader pins a snapshot.  A reader
           domain checks against the first project and exits; after a
           reload that project must be garbage. *)
        let runtime = Runtime.create () in
        let first = load_weakly runtime ~name:"P" 1 in
        Domain.join
          (Domain.spawn (fun () -> ignore (Runtime.check runtime "P" (user 1L))));
        Runtime.load runtime (Project.staged ~name:"P" ~employee_prob:0.0 ~world_prob:0.5);
        Gc.full_major ();
        Alcotest.(check bool) "replaced project collected" false (Weak.check first 0);
        Alcotest.(check (list string)) "still served" [ "P" ] (Runtime.project_names runtime));
    Alcotest.test_case "exposure buffers merge across domains" `Quick (fun () ->
        let log = Exposure.Log.create () in
        let runtime = Runtime.create ~exposures:log () in
        Runtime.load runtime (Project.staged ~name:"X" ~employee_prob:0.0 ~world_prob:1.0);
        let worker lo =
          Domain.spawn (fun () ->
              for i = lo to lo + 99 do
                ignore (Runtime.check runtime "X" (user (Int64.of_int i)))
              done)
        in
        let a = worker 0 and b = worker 1000 in
        Domain.join a;
        Domain.join b;
        Alcotest.(check int) "200 exposures" 200 (Exposure.Log.length log);
        match Exposure.by_variant (Exposure.Log.drain log) with
        | [ ("pass", 200, _) ] -> ()
        | cells ->
            Alcotest.failf "unexpected cells: %s"
              (String.concat ";" (List.map (fun (v, n, _) -> Printf.sprintf "%s=%d" v n) cells)));
  ]

let properties =
  List.map QCheck_alcotest.to_alcotest [ laser_model; multicore_equivalence; stats_merge_exact ]

let () =
  Alcotest.run "multicore"
    [
      "laser", laser_tests;
      "runtime", runtime_tests;
      "properties", properties;
    ]
