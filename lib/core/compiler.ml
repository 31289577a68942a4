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
   [collect] hands pool workers the map as it stands before a fan-out
   -- an immutable snapshot they can only read -- and makes every
   write (hit/miss counts, recency stamps, publishing) itself, on the
   caller's domain, at the join.  Workers read an entry's [value]
   only; its [stamp] changes only at the join.

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
}

let create ?validators ?cache ?depgraph tree =
  let vals = match validators with Some v -> v | None -> Validator.create () in
  let dep =
    match depgraph with
    | Some dep -> dep
    | None ->
        let dep = Depgraph.create () in
        Depgraph.scan dep tree;
        dep
  in
  let cache = match cache with Some c -> c | None -> Cache.create () in
  { tree; vals; dep; cache }

let validators t = t.vals
let source_tree t = t.tree
let depgraph t = t.dep
let cache t = t.cache

let artifact_path_of path =
  match Source_tree.kind_of_path path with
  | Source_tree.Cconf ->
      let base = String.sub path 0 (String.length path - String.length ".cconf") in
      base ^ ".json"
  | Source_tree.Cinc | Source_tree.Thrift | Source_tree.Cvalidator | Source_tree.Raw -> path

let err at stage fmt = Printf.ksprintf (fun message -> Error { at; stage; message }) fmt

(* What every key and every typed compile reads of the tree's
   validators, built once per [collect] on the caller before the
   fan-out; workers only read it.

   - [closure]: every validator plus its transitive imports, sorted
     and unique -- a validator can constrain any typed config, so its
     text is part of every key;
   - [rules]: type name -> the parsed source validator at the first
     path, in sorted order, named "<Type>.thrift-cvalidator" (at the
     root or under any directory). *)
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

let view t =
  let rules =
    List.fold_left
      (fun rules path ->
        match guarded_type path, Source_tree.read t.tree path with
        | Some type_name, Some source when not (Smap.mem type_name rules) ->
            Smap.add type_name (Validator.of_source ~type_name ~source) rules
        | _ -> rules)
      Smap.empty
      (Source_tree.paths_of_kind t.tree Source_tree.Cvalidator)
  in
  { closure = validator_closure t; rules }

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

let compile_cconf t view path source =
  match
    Cm_lang.Eval.run ~loader:(Source_tree.loader t.tree) ~path ~source
  with
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

let compile_in t view path =
  match Source_tree.read t.tree path with
  | None -> err path Parse "no such source file"
  | Some source -> (
      match Source_tree.kind_of_path path with
      | Source_tree.Cconf -> compile_cconf t view path source
      | Source_tree.Raw -> compile_raw path source
      | Source_tree.Cinc | Source_tree.Thrift | Source_tree.Cvalidator ->
          err path Parse "not a config root (modules and schemas are not compiled directly)")

let compile t path = compile_in t (view t) path

(* The content key of a config: its own source, its transitive import
   closure, and the validator closure ([view.closure]).  Hashing the
   closure rather than tracking timestamps makes the memo table
   shareable across source trees: a development clone and the live
   tree that agree on the closure bytes agree on the artifact. *)
let closure_key t ~validators path =
  let closure =
    List.sort_uniq String.compare ((path :: Depgraph.transitive_deps t.dep path) @ validators)
  in
  let buf = Buffer.create 512 in
  List.iter
    (fun p ->
      Buffer.add_string buf p;
      Buffer.add_char buf '\000';
      (match Source_tree.read t.tree p with
      | Some content -> Buffer.add_string buf content
      | None -> Buffer.add_string buf "\000<missing>");
      Buffer.add_char buf '\000')
    closure;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let closure_hash t path = closure_key t ~validators:(validator_closure t) path

(* What a pool worker hands back for one target. *)
type lookup = Hit of compiled | Compiled of (compiled, error) result

(* The worker half of a memoized compile: hash the closure and look it
   up in [snapshot], compiling only on a miss.  Reads the immutable
   tree, view and snapshot, writes nothing shared. *)
let lookup t view snapshot path =
  let key = closure_key t ~validators:view.closure path in
  match Smap.find_opt key snapshot with
  | Some e -> key, Hit e.Cache.value
  | None -> key, Compiled (compile_in t view path)

(* Collect: build the validator [view] once, topologically level-order
   the targets from the dependency graph and fan each level out to the
   domain pool against a snapshot of the cache taken before the
   fan-out.  At each level's join the caller counts, stamps and
   publishes in level order, so the cache ends up identical --
   entries, recency, evictions, hit/miss totals -- at any domain
   count.  The results fold into ([oks], [errors]), both
   in [targets] order.  Without [pool], a 1-domain pool runs every
   level inline on the caller. *)
let collect ?(pool = Cm_parallel.Pool.create ()) t targets =
  let view = view t in
  let results = Hashtbl.create (max 16 (List.length targets)) in
  List.iter
    (fun level ->
      let level = Array.of_list level in
      let out = Cm_parallel.Pool.map_array pool (lookup t view t.cache.Cache.entries) level in
      Array.iteri
        (fun i (key, found) ->
          let result =
            match found with
            | Hit compiled ->
                Cache.record_hit t.cache key compiled;
                Ok compiled
            | Compiled result ->
                Cache.record_miss t.cache key result;
                result
          in
          Hashtbl.replace results level.(i) result)
        out)
    (Depgraph.levels t.dep targets);
  List.fold_left
    (fun (oks, errors) path ->
      match Hashtbl.find results path with
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
