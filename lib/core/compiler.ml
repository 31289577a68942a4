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

(* Content-addressed artifact memo table, owned by one domain.

   Keys are closure hashes.  The table is a persistent map, so
   [collect] looks its keys up in the map as it stands before the
   fan-out -- an immutable snapshot -- and makes every write (hit/miss
   counts, recency stamps, publishing) itself, on the caller's domain,
   at the join.  Pool workers never touch the table.

   An optional byte budget bounds the table by exact LRU: every use
   stamps its entry from one clock, and a publish that overflows the
   budget drops least-recently-used entries (never the one being
   added) until the table fits.  A long-lived compiler thus holds a
   working set, not an unbounded history of every closure hash it ever
   compiled. *)
module Smap = Map.Make (String)

module Cache = struct
  type entry = {
    value : compiled;
    cost : int;  (* bytes this entry accounts for *)
    mutable stamp : int;  (* clock of its last use *)
  }

  type t = {
    budget : int;  (* byte_budget, or max_int *)
    mutable entries : entry Smap.t;
    mutable clock : int;
    mutable bytes : int;
    mutable evicted : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ?(byte_budget = max_int) () =
    {
      budget = byte_budget;
      entries = Smap.empty;
      clock = 0;
      bytes = 0;
      evicted = 0;
      hits = 0;
      misses = 0;
    }

  (* What an entry charges against the budget: the artifact bytes plus
     the strings hanging off the record and a fixed allowance for the
     record, schema pointer and map node. *)
  let entry_cost c =
    String.length c.json_text + String.length c.config_path
    + String.length c.artifact_path
    + List.fold_left (fun acc d -> acc + String.length d) 0 c.deps
    + 160

  let touch t e =
    e.stamp <- t.clock;
    t.clock <- t.clock + 1

  (* Drop the least recently used entry, never [keep], until the table
     fits its budget. *)
  let rec evict t ~keep =
    if t.bytes > t.budget then begin
      let oldest =
        Smap.fold
          (fun key e acc ->
            if String.equal key keep then acc
            else
              match acc with
              | Some (_, old) when old.stamp <= e.stamp -> acc
              | _ -> Some (key, e))
          t.entries None
      in
      match oldest with
      | None -> ()
      | Some (key, e) ->
          t.entries <- Smap.remove key t.entries;
          t.bytes <- t.bytes - e.cost;
          t.evicted <- t.evicted + 1;
          evict t ~keep
    end

  let store t key value =
    match Smap.find_opt key t.entries with
    | Some e -> touch t e
    | None ->
        let e = { value; cost = entry_cost value; stamp = 0 } in
        touch t e;
        t.entries <- Smap.add key e t.entries;
        t.bytes <- t.bytes + e.cost;
        evict t ~keep:key

  let find t key =
    match Smap.find_opt key t.entries with
    | Some e ->
        touch t e;
        Some e.value
    | None -> None

  (* The join-point writes for one target, in target order: a hit
     re-stamps (or, if an earlier publish of the same join evicted it,
     re-publishes) its artifact; a miss publishes only a success --
     errors are cheap to reproduce and must stay attributable to
     current sources. *)
  let record_hit t key value =
    t.hits <- t.hits + 1;
    store t key value

  let record_miss t key result =
    t.misses <- t.misses + 1;
    Result.iter (store t key) result

  let hits t = t.hits
  let misses t = t.misses
  let size t = Smap.cardinal t.entries
  let resident_bytes t = t.bytes
  let evictions t = t.evicted
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
   outline its dependency-graph entry kept. *)
let add_imports t modules path =
  match Depgraph.outline t.dep path with
  | Some (Depgraph.Parsed items) ->
      List.iter
        (function
          | Depgraph.Import target -> Cm_lang.Eval.Modules.add modules target
          | Depgraph.Import_thrift target -> Cm_lang.Eval.Modules.add_thrift modules target
          | Depgraph.Bound _ -> ())
        items
  | Some Depgraph.Unparseable | None -> ()

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

(* The content key of a config: its own source, its transitive import
   closure, and the validator closure ([view.closure]), each file
   entering as its path and the digest of its bytes.  [digests] memoizes
   the file digests for one collect, so a module shared by many configs
   is hashed once, not once per importer.  Hashing the closure rather
   than tracking timestamps makes the memo table shareable across source
   trees: a development clone and the live tree that agree on the
   closure bytes agree on the artifact. *)
let closure_key t ~digests ~validators path =
  let digest p =
    match Hashtbl.find_opt digests p with
    | Some d -> d
    | None ->
        let d =
          match Source_tree.read t.tree p with
          | Some content -> Digest.string content
          | None -> "\000<missing>"
        in
        Hashtbl.add digests p d;
        d
  in
  let closure =
    List.sort_uniq String.compare ((path :: Depgraph.transitive_deps t.dep path) @ validators)
  in
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string buf p;
      Buffer.add_char buf '\000';
      Buffer.add_string buf (digest p);
      Buffer.add_char buf '\000')
    closure;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let closure_hash t path =
  closure_key t ~digests:(Hashtbl.create 16) ~validators:(validator_closure t) path

(* Collect: one fan-out.  No compile reads another config's artifact,
   so the targets need no order.  The caller keys each unique target
   once, in sorted order (hashing each file of the collect once), and
   looks the keys up in the cache as it stands before the fan-out; if
   any misses, it builds the validator rules and adds the misses'
   imports to the collect's one module table.  The pool then compiles
   the misses, reading the tree, the view and the table only.  At the
   join the caller counts, stamps and publishes in sorted target
   order, so the cache ends up identical -- entries, recency,
   evictions, hit/miss totals -- at any domain count.  The results
   fold into ([oks], [errors]), both in [targets] order (a duplicate
   target appears twice).  Without [pool], a 1-domain pool compiles
   inline on the caller.  The module table and the digests are
   dropped on return. *)
let collect ?(pool = Cm_parallel.Pool.create ()) t targets =
  let modules = new_modules t in
  let digests = Hashtbl.create 64 in
  let closure = validator_closure t in
  let unique = Array.of_list (List.sort_uniq String.compare targets) in
  let keys = Array.map (closure_key t ~digests ~validators:closure) unique in
  let snapshot = t.cache.Cache.entries in
  let cached =
    Array.map (fun key -> Option.map (fun e -> e.Cache.value) (Smap.find_opt key snapshot)) keys
  in
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
        | Some artifact ->
            Cache.record_hit t.cache keys.(i) artifact;
            Ok artifact
        | None ->
            let result = compiled.(!next) in
            incr next;
            Cache.record_miss t.cache keys.(i) result;
            result)
  in
  t.evaluations <- t.evaluations + Cm_lang.Eval.Modules.evaluations modules;
  let by_path = Smap.of_seq (Seq.zip (Array.to_seq unique) (Array.to_seq results)) in
  List.fold_left
    (fun (oks, errors) path ->
      match Smap.find path by_path with
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
