type compiled = {
  config_path : string;
  artifact_path : string;
  json : Cm_json.Value.t;
  json_text : string;
  digest : string;
  type_name : string option;
  schema : Cm_thrift.Schema.t;
  schema_hash : string option;
  deps : string list;
}

let digest_of_text text = Digest.to_hex (Digest.string text)

type error = { at : string; stage : stage; message : string }

and stage = Parse | Eval | Schema | Validation | Serialize

let stage_name = function
  | Parse -> "parse"
  | Eval -> "eval"
  | Schema -> "schema"
  | Validation -> "validation"
  | Serialize -> "serialize"

let pp_error ppf { at; stage; message } =
  Format.fprintf ppf "%s: [%s] %s" at (stage_name stage) message

(* Validation failures are the validator defense layer speaking; every
   other compile error is the compiler itself. *)
let verdict_of_error { at; stage; message } =
  let layer = match stage with Validation -> "validator" | _ -> "compile" in
  Defense.fail ~stage:layer ~rule:(stage_name stage) ~path:at message

(* The artifact memo table, owned by one domain: one slot per config
   path, holding the closure key its artifact was compiled under.

   A probe hits only when the slot's key is the target's current key.
   [collect] probes once per target before the fan-out and makes every
   write (hit/miss counts, replacing a slot) itself, on the caller's
   domain, at the join.  Pool workers never touch the table.  A key
   covers the config's own path, so a slot per path loses only hits on
   an earlier closure of the same path, and the table never holds more
   than one artifact per config. *)
module Smap = Map.Make (String)

module Cache = struct
  type slot = { key : string; value : compiled }

  type t = {
    slots : (string, slot) Hashtbl.t;  (* config path -> its last artifact *)
    mutable hits : int;
    mutable misses : int;
  }

  let create () = { slots = Hashtbl.create 256; hits = 0; misses = 0 }

  let probe t path key =
    match Hashtbl.find_opt t.slots path with
    | Some slot when String.equal slot.key key -> Some slot.value
    | Some _ | None -> None

  let record_hit t = t.hits <- t.hits + 1

  (* A miss replaces the slot only with a success: errors are cheap to
     reproduce and must stay attributable to current sources. *)
  let record_miss t path key result =
    t.misses <- t.misses + 1;
    Result.iter (fun value -> Hashtbl.replace t.slots path { key; value }) result

  let hits t = t.hits
  let misses t = t.misses
  let size t = Hashtbl.length t.slots
end

type t = {
  tree : Source_tree.t;
  vals : Validator.t;
  dep : Depgraph.t;
  cache : Cache.t;
  mutable evaluations : int;  (* modules evaluated by all collects *)
}

let create ?validators ?cache ?depgraph tree =
  let vals = match validators with Some v -> v | None -> Validator.create () in
  let dep = match depgraph with Some dep -> dep | None -> Depgraph.of_tree tree in
  let cache = match cache with Some c -> c | None -> Cache.create () in
  { tree; vals; dep; cache; evaluations = 0 }

let validators t = t.vals
let source_tree t = t.tree
let depgraph t = t.dep
let cache t = t.cache
let module_evaluations t = t.evaluations

let artifact_path_of path =
  match Source_tree.kind_of_path path with
  | Source_tree.Cconf ->
      let base = String.sub path 0 (String.length path - String.length ".cconf") in
      base ^ ".json"
  | Source_tree.Cinc | Source_tree.Thrift | Source_tree.Cvalidator | Source_tree.Raw -> path

let err at stage fmt = Printf.ksprintf (fun message -> Error { at; stage; message }) fmt

(* What every key and every typed compile reads of the tree's
   validators, built on the caller before the fan-out; workers only
   read it.

   - [closure]: every validator plus its transitive imports, sorted
     and unique -- a validator can constrain any typed config, so its
     text is part of every key;
   - [rules]: type name -> the source validator at the first path, in
     sorted order, named "<Type>.thrift-cvalidator" (at the root or
     under any directory), evaluated once through the module table. *)
type view = { closure : string list; rules : (Validator.rule, string) result Smap.t }

let validator_closure t =
  List.sort_uniq String.compare
    (List.concat_map
       (fun v -> v :: Depgraph.transitive_deps t.dep v)
       (Source_tree.paths_of_kind t.tree Source_tree.Cvalidator))

(* The type a validator path guards: its basename less the suffix. *)
let guarded_type path =
  let suffix = ".thrift-cvalidator" in
  if not (String.ends_with ~suffix path) then None
  else
    let start = match String.rindex_opt path '/' with Some i -> i + 1 | None -> 0 in
    Some (String.sub path start (String.length path - String.length suffix - start))

let validator_rules t modules =
  List.fold_left
    (fun rules path ->
      match guarded_type path, Source_tree.read t.tree path with
      | Some type_name, Some source when not (Smap.mem type_name rules) ->
          Smap.add type_name (Validator.of_source ~modules ~type_name ~source) rules
      | _ -> rules)
    Smap.empty
    (Source_tree.paths_of_kind t.tree Source_tree.Cvalidator)

(* Add to [modules] every import a config's source names, from the
   edge prefix of the outline its dependency-graph entry kept. *)
let add_imports t modules path =
  List.iter
    (function
      | Depgraph.Import target -> Cm_lang.Eval.Modules.add modules target
      | Depgraph.Import_thrift target -> Cm_lang.Eval.Modules.add_thrift modules target
      | Depgraph.Bound _ -> ())
    (Depgraph.imports t.dep path)

let new_modules t = Cm_lang.Eval.Modules.create ~loader:(Source_tree.loader t.tree)

let run_validators t view ~path ~type_name value =
  match Validator.validate t.vals ~type_name value with
  | Validator.Fail reason -> err path Validation "%s" reason
  | Validator.Pass -> (
      match Smap.find_opt type_name view.rules with
      | None -> Ok ()
      | Some (Error reason) -> err path Validation "%s" reason
      | Some (Ok rule) -> (
          match rule.Validator.check value with
          | Validator.Pass -> Ok ()
          | Validator.Fail reason -> err path Validation "%s" reason))

let compile_cconf t view modules path source =
  match Cm_lang.Eval.run ~modules ~path ~source with
  | Error e -> err path Eval "line %d: %s" e.Cm_lang.Eval.line e.Cm_lang.Eval.message
  | Ok outcome -> (
      match outcome.Cm_lang.Eval.export with
      | None -> err path Eval "config program did not export anything"
      | Some exported -> (
          match Cm_lang.Eval.to_thrift exported with
          | Error reason -> err path Serialize "%s" reason
          | Ok value -> (
              let schema = outcome.Cm_lang.Eval.schema in
              let typed =
                match value with
                | Cm_thrift.Value.Struct (name, _) -> (
                    match Cm_thrift.Check.check_struct schema name value with
                    | Ok normalized -> Ok (normalized, Some name)
                    | Error e ->
                        err path Schema "%s" (Format.asprintf "%a" Cm_thrift.Check.pp_error e))
                | other -> Ok (other, None)
              in
              match typed with
              | Error _ as e -> e
              | Ok (normalized, type_name) -> (
                  let validated =
                    match type_name with
                    | Some name -> run_validators t view ~path ~type_name:name normalized
                    | None -> Ok ()
                  in
                  match validated with
                  | Error _ as e -> e
                  | Ok () ->
                      let json = Cm_thrift.Codec.encode normalized in
                      let json_text = Cm_json.Value.to_compact_string json in
                      Ok
                        {
                          config_path = path;
                          artifact_path = artifact_path_of path;
                          json;
                          json_text;
                          digest = digest_of_text json_text;
                          type_name;
                          schema;
                          schema_hash =
                            (match type_name with
                            | Some _ -> Some (Cm_thrift.Schema.hash schema)
                            | None -> None);
                          deps = outcome.Cm_lang.Eval.loaded;
                        }))))

let compile_raw path source =
  let ends_with suffix =
    let n = String.length path and m = String.length suffix in
    n >= m && String.sub path (n - m) m = suffix
  in
  match Cm_json.Parser.parse source with
  | Ok json ->
      (* Raw configs that happen to be JSON keep their structure. *)
      let json_text = Cm_json.Value.to_compact_string json in
      Ok
        {
          config_path = path;
          artifact_path = path;
          json;
          json_text;
          digest = digest_of_text json_text;
          type_name = None;
          schema = Cm_thrift.Schema.empty;
          schema_hash = None;
          deps = [];
        }
  | Error e when ends_with ".json" ->
      err path Parse "%s" (Format.asprintf "%a" Cm_json.Parser.pp_error e)
  | Error _ ->
      (* Arbitrary raw content is distributed as-is (§6.1: "Configerator
         allows engineers to check in raw configs of any format"). *)
      Ok
        {
          config_path = path;
          artifact_path = path;
          json = Cm_json.Value.String source;
          json_text = source;
          digest = digest_of_text source;
          type_name = None;
          schema = Cm_thrift.Schema.empty;
          schema_hash = None;
          deps = [];
        }

let compile_in t view modules path =
  match Source_tree.read t.tree path with
  | None -> err path Parse "no such source file"
  | Some source -> (
      match Source_tree.kind_of_path path with
      | Source_tree.Cconf -> compile_cconf t view modules path source
      | Source_tree.Raw -> compile_raw path source
      | Source_tree.Cinc | Source_tree.Thrift | Source_tree.Cvalidator ->
          err path Parse "not a config root (modules and schemas are not compiled directly)")

(* Unmemoized, so it does not trust the index either: the imports come
   from parsing the source as it is now. *)
let compile t path =
  let modules = new_modules t in
  let view = { closure = validator_closure t; rules = validator_rules t modules } in
  (match Source_tree.read t.tree path with
  | Some source when Source_tree.kind_of_path path = Source_tree.Cconf ->
      Result.iter (Cm_lang.Eval.Modules.add_imports modules) (Cm_lang.Parser.parse source)
  | Some _ | None -> ());
  let result = compile_in t view modules path in
  t.evaluations <- t.evaluations + Cm_lang.Eval.Modules.evaluations modules;
  result

(* The union of two sorted, duplicate-free lists, still sorted and
   duplicate-free. *)
let rec union a b =
  match a, b with
  | [], l | l, [] -> l
  | x :: a', y :: b' ->
      let c = String.compare x y in
      if c < 0 then x :: union a' b else if c > 0 then y :: union a b' else x :: union a' b'

(* What one collect shares between its keys: the file digests, so a
   module shared by many configs is hashed once, not once per importer,
   and the bytes each key's input is assembled in. *)
type keyer = { digests : (string, string) Hashtbl.t; mutable scratch : Bytes.t }

let new_keyer () = { digests = Hashtbl.create 64; scratch = Bytes.create 1024 }

(* The content key of a config: its own source, its transitive import
   closure, and the validator closure ([validators]), in sorted order,
   each file entering as its path, ['\000'], the digest of its bytes
   and ['\000']; the key is the raw digest of that input.  Hashing the
   closure rather than tracking timestamps makes the memo table
   shareable across source trees: a development clone and the live tree
   that agree on the closure bytes agree on the artifact. *)
let closure_key t keyer ~validators path =
  let digest p =
    match Hashtbl.find_opt keyer.digests p with
    | Some d -> d
    | None ->
        let d =
          match Source_tree.read t.tree p with
          | Some content -> Digest.string content
          | None -> "\000<missing>"
        in
        Hashtbl.add keyer.digests p d;
        d
  in
  let closure = union (union [ path ] (Depgraph.transitive_deps t.dep path)) validators in
  let size =
    List.fold_left (fun n p -> n + String.length p + String.length (digest p) + 2) 0 closure
  in
  if Bytes.length keyer.scratch < size then
    keyer.scratch <- Bytes.create (max size (2 * Bytes.length keyer.scratch));
  let buf = keyer.scratch in
  let put at s =
    Bytes.blit_string s 0 buf at (String.length s);
    Bytes.unsafe_set buf (at + String.length s) '\000';
    at + String.length s + 1
  in
  ignore (List.fold_left (fun at p -> put (put at p) (digest p)) 0 closure);
  Digest.subbytes buf 0 size

let closure_hash t path =
  Digest.to_hex (closure_key t (new_keyer ()) ~validators:(validator_closure t) path)

(* The index of [path] in the sorted, duplicate-free [a], which holds
   it. *)
let index_of a path =
  let rec go lo hi =
    let mid = (lo + hi) / 2 in
    let c = String.compare path a.(mid) in
    if c = 0 then mid else if c < 0 then go lo (mid - 1) else go (mid + 1) hi
  in
  go 0 (Array.length a - 1)

(* Collect: one fan-out.  No compile reads another config's artifact,
   so the targets need no order.  The caller keys each unique target
   once, in sorted order (hashing each file of the collect once), and
   probes the cache once per key before the fan-out; if any misses, it
   builds the validator rules and adds the misses' imports to the
   collect's one module table.  The pool then compiles the misses,
   reading the tree, the view and the table only.  At the join the
   caller counts and replaces slots in sorted target order, so the
   cache ends up identical -- slots and hit/miss totals -- at any
   domain count.  The results fold into ([oks],
   [errors]), both in [targets] order (a duplicate target appears
   twice).  Without [pool], a 1-domain pool compiles inline on the
   caller.  The module table and the digests are dropped on return. *)
let collect ?(pool = Cm_parallel.Pool.create ()) t targets =
  let modules = new_modules t in
  let keyer = new_keyer () in
  let closure = validator_closure t in
  let unique = Array.of_list (List.sort_uniq String.compare targets) in
  let keys = Array.map (closure_key t keyer ~validators:closure) unique in
  let cached = Array.map2 (Cache.probe t.cache) unique keys in
  let misses =
    Array.of_seq
      (Seq.filter (fun i -> Option.is_none cached.(i)) (Seq.init (Array.length keys) Fun.id))
  in
  let compiled =
    if misses = [||] then [||]
    else begin
      let view = { closure; rules = validator_rules t modules } in
      Array.iter (fun i -> add_imports t modules unique.(i)) misses;
      Cm_parallel.Pool.map_array pool (fun i -> compile_in t view modules unique.(i)) misses
    end
  in
  (* The join: [compiled] holds the misses' results in sorted order. *)
  let next = ref 0 in
  let results =
    Array.init (Array.length keys) (fun i ->
        match cached.(i) with
        | Some value ->
            Cache.record_hit t.cache;
            Ok value
        | None ->
            let result = compiled.(!next) in
            incr next;
            Cache.record_miss t.cache unique.(i) keys.(i) result;
            result)
  in
  t.evaluations <- t.evaluations + Cm_lang.Eval.Modules.evaluations modules;
  List.fold_left
    (fun (oks, errors) path ->
      match results.(index_of unique path) with
      | Ok compiled -> compiled :: oks, errors
      | Error e -> oks, e :: errors)
    ([], []) targets
  |> fun (oks, errors) -> List.rev oks, List.rev errors

let note_changed t changed =
  List.iter (fun path -> Depgraph.update_file t.dep t.tree path) changed

let compile_affected ?pool t ~changed =
  note_changed t changed;
  collect ?pool t (Depgraph.affected_configs t.dep changed)

let compile_targets = collect

let compile_all ?pool t =
  collect ?pool t
    (Source_tree.paths_of_kind t.tree Source_tree.Cconf
    @ Source_tree.paths_of_kind t.tree Source_tree.Raw)
