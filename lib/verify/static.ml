module Defense = Core.Defense
module Depgraph = Core.Depgraph

type check = {
  check_name : string;
  run :
    outlines:(string * Depgraph.item list) list ->
    compiled:Core.Compiler.compiled list ->
    Defense.finding list;
}

(* The cone's source closure: every config plus everything it imports. *)
let reachable compiled =
  List.sort_uniq String.compare
    (List.concat_map
       (fun c -> c.Core.Compiler.config_path :: c.Core.Compiler.deps)
       compiled)

let cone_outlines dep compiled =
  List.filter_map
    (fun path ->
      match Depgraph.outline dep path with
      | Some (Depgraph.Parsed items) -> Some (path, items)
      (* Unparseable sources are the compiler's problem, not ours. *)
      | Some Depgraph.Unparseable | None -> None)
    (reachable compiled)

let csl_imports items =
  List.filter_map (function Depgraph.Import p -> Some p | _ -> None) items

let cycles =
  {
    check_name = "dep-cycle";
    run =
      (fun ~outlines ~compiled:_ ->
        let adj = Hashtbl.create 16 in
        List.iter (fun (path, items) -> Hashtbl.replace adj path (csl_imports items)) outlines;
        let state = Hashtbl.create 16 in
        let found = ref [] in
        let rec dfs stack path =
          match Hashtbl.find_opt state path with
          | Some `Done -> ()
          | Some `Active ->
              (* Back edge: the cycle is the stack suffix from [path],
                 closed by repeating [path] at the end. *)
              let rec take acc = function
                | [] -> acc
                | p :: rest -> if p = path then p :: acc else take (p :: acc) rest
              in
              found := (take [] stack @ [ path ]) :: !found
          | None ->
              Hashtbl.replace state path `Active;
              List.iter
                (fun dep -> if Hashtbl.mem adj dep then dfs (path :: stack) dep)
                (Option.value ~default:[] (Hashtbl.find_opt adj path));
              Hashtbl.replace state path `Done
        in
        List.iter (fun (path, _) -> dfs [] path) outlines;
        List.rev_map
          (fun cycle ->
            Defense.finding ~ok:false ~at:(List.hd cycle)
              (Printf.sprintf "import cycle: %s" (String.concat " -> " cycle)))
          !found);
  }

let bound_names items =
  List.filter_map (function Depgraph.Bound name -> Some name | _ -> None) items

let shadowed_exports =
  {
    check_name = "shadowed-export";
    run =
      (fun ~outlines ~compiled:_ ->
        let exports_of =
          let table = Hashtbl.create 16 in
          List.iter (fun (path, items) -> Hashtbl.replace table path (bound_names items)) outlines;
          fun path -> Option.value ~default:[] (Hashtbl.find_opt table path)
        in
        List.concat_map
          (fun (path, items) ->
            (* Walk the statements in evaluation order, tracking where
               each name last came from. *)
            let env = Hashtbl.create 16 in
            let findings = ref [] in
            let flag note = findings := Defense.finding ~ok:false ~at:path note :: !findings in
            List.iter
              (function
                | Depgraph.Import dep ->
                    List.iter
                      (fun name ->
                        (match Hashtbl.find_opt env name with
                        | Some (`Import other) when other <> dep ->
                            flag
                              (Printf.sprintf
                                 "%s: import of %S shadows %S already imported from %S"
                                 path name name other)
                        | Some (`Import _) | Some `Local | None -> ());
                        Hashtbl.replace env name (`Import dep))
                      (exports_of dep)
                | Depgraph.Bound name ->
                    (match Hashtbl.find_opt env name with
                    | Some (`Import dep) ->
                        flag
                          (Printf.sprintf "%s: local binding %S shadows the export of %S"
                             path name dep)
                    | Some `Local | None -> ());
                    Hashtbl.replace env name `Local
                | Depgraph.Import_thrift _ -> ())
              items;
            List.rev !findings)
          outlines);
  }

let artifact_collisions =
  {
    check_name = "artifact-collision";
    run =
      (fun ~outlines:_ ~compiled ->
        let by_artifact = Hashtbl.create 16 in
        List.iter
          (fun c ->
            let key = c.Core.Compiler.artifact_path in
            let sources = Option.value ~default:[] (Hashtbl.find_opt by_artifact key) in
            Hashtbl.replace by_artifact key (c.Core.Compiler.config_path :: sources))
          compiled;
        Hashtbl.fold
          (fun artifact sources acc ->
            match List.sort_uniq String.compare sources with
            | _ :: _ :: _ as many ->
                Defense.finding ~ok:false ~at:artifact
                  (Printf.sprintf "artifact %s produced by multiple configs: %s" artifact
                     (String.concat ", " many))
                :: acc
            | _ -> acc)
          by_artifact []
        |> List.sort (fun a b -> String.compare a.Defense.at b.Defense.at));
  }

let all = [ cycles; shadowed_exports; artifact_collisions ]
