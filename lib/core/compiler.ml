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

(* Domain-safe, content-addressed artifact memo cache.

   The keyspace is hash-sharded; each shard is an immutable map
   behind one [Atomic.t] (the PR-8 snapshot-swap recipe from the
   Gatekeeper/Laser check plane, applied to the write path).  The hit
   path is wait-free — one atomic load plus a persistent-map lookup;
   publishing a miss is a CAS loop against the freshest shard root,
   so compiling domains never block each other and never block a
   concurrent reader (e.g. the live tailer hitting the cache while a
   proposal compiles on the pool).

   The cache is bounded: an optional byte budget, split evenly across
   shards, is enforced at publish time by clock-style LRU eviction —
   every hit stamps its entry from a global tick counter, and a
   publish that overflows its shard drops least-recently-stamped
   entries (never the one being added) until the shard fits.  A
   long-lived tailer thus holds a working set, not an unbounded
   history of every closure hash it ever compiled.

   Shared counters ([hits]/[misses]/[compile_seconds]) are plain
   metrics mutated only on the caller's domain: workers accumulate
   into per-domain [local] blocks that [merge] at the pool's join
   point. *)
module Cache = struct
  module Metrics = Cm_sim.Metrics
  module Smap = Map.Make (String)

  type entry = {
    value : compiled;
    cost : int;                (* bytes this entry accounts for *)
    last_used : int Atomic.t;  (* clock stamp; racy by design *)
  }

  type shard = { entries : entry Smap.t; bytes : int }

  type t = {
    nshards : int;
    shards : shard Atomic.t array;
    clock : int Atomic.t;
    shard_budget : int;  (* byte_budget / nshards, or max_int *)
    evicted : int Atomic.t;
    hit_counter : Metrics.Counter.t;
    miss_counter : Metrics.Counter.t;
    compile_seconds : Metrics.Histogram.t;
  }

  let create ?byte_budget ?(shards = 16) () =
    let nshards = max 1 shards in
    {
      nshards;
      shards =
        Array.init nshards (fun _ -> Atomic.make { entries = Smap.empty; bytes = 0 });
      clock = Atomic.make 0;
      shard_budget =
        (match byte_budget with
        | Some budget -> max 1 (budget / nshards)
        | None -> max_int);
      evicted = Atomic.make 0;
      hit_counter = Metrics.Counter.create ();
      miss_counter = Metrics.Counter.create ();
      compile_seconds = Metrics.Histogram.create ();
    }

  (* What an entry charges against the budget: the artifact bytes plus
     the strings hanging off the record and a fixed allowance for the
     record, schema pointer and map node. *)
  let entry_cost c =
    String.length c.json_text + String.length c.config_path
    + String.length c.artifact_path
    + List.fold_left (fun acc d -> acc + String.length d) 0 c.deps
    + 160

  let shard_of t key = Hashtbl.hash key mod t.nshards

  let find t key =
    let root = Atomic.get t.shards.(shard_of t key) in
    match Smap.find_opt key root.entries with
    | Some e ->
        Atomic.set e.last_used (Atomic.fetch_and_add t.clock 1);
        Some e.value
    | None -> None

  (* Evict least-recently-stamped entries (never [keep]) until the
     shard fits its budget. *)
  let rec shrink t ~keep shard nevicted =
    if shard.bytes <= t.shard_budget || Smap.cardinal shard.entries <= 1 then
      shard, nevicted
    else begin
      let victim =
        Smap.fold
          (fun key e acc ->
            if String.equal key keep then acc
            else
              match acc with
              | Some (_, best) when Atomic.get best.last_used <= Atomic.get e.last_used
                -> acc
              | _ -> Some (key, e))
          shard.entries None
      in
      match victim with
      | None -> shard, nevicted
      | Some (key, e) ->
          shrink t ~keep
            { entries = Smap.remove key shard.entries; bytes = shard.bytes - e.cost }
            (nevicted + 1)
    end

  let rec store t key value =
    let cell = t.shards.(shard_of t key) in
    let old = Atomic.get cell in
    if Smap.mem key old.entries then ()
      (* a racing publisher won; closure hashes are content addresses,
         so its artifact is byte-identical to ours *)
    else begin
      let e =
        {
          value;
          cost = entry_cost value;
          last_used = Atomic.make (Atomic.fetch_and_add t.clock 1);
        }
      in
      let grown = { entries = Smap.add key e old.entries; bytes = old.bytes + e.cost } in
      let next, nevicted = shrink t ~keep:key grown 0 in
      if Atomic.compare_and_set cell old next then begin
        if nevicted > 0 then ignore (Atomic.fetch_and_add t.evicted nevicted)
      end
      else store t key value
    end

  let hits t = Metrics.Counter.value t.hit_counter
  let misses t = Metrics.Counter.value t.miss_counter

  let size t =
    Array.fold_left
      (fun acc cell -> acc + Smap.cardinal (Atomic.get cell).entries)
      0 t.shards

  let resident_bytes t =
    Array.fold_left (fun acc cell -> acc + (Atomic.get cell).bytes) 0 t.shards

  let evictions t = Atomic.get t.evicted
  let shard_count t = t.nshards
  let compile_seconds t = t.compile_seconds

  (* Per-domain counter block, merged on the caller's domain at the
     pool's join point — shared metrics are never touched from a
     worker. *)
  type local = {
    mutable lhits : int;
    mutable lmisses : int;
    mutable lsamples : float list;  (* per-miss compile seconds, newest first *)
  }

  let local () = { lhits = 0; lmisses = 0; lsamples = [] }

  let merge t l =
    if l.lhits > 0 then Metrics.Counter.incr ~by:l.lhits t.hit_counter;
    if l.lmisses > 0 then Metrics.Counter.incr ~by:l.lmisses t.miss_counter;
    List.iter (Metrics.Histogram.add t.compile_seconds) (List.rev l.lsamples)
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

(* Source validators live at "<dir>/<Type>.thrift-cvalidator" or
   anywhere in the tree with that basename; discovery is by suffix. *)
let source_validator t type_name =
  let suffix = type_name ^ ".thrift-cvalidator" in
  let matches path =
    let n = String.length path and m = String.length suffix in
    n >= m
    && String.sub path (n - m) m = suffix
    && (n = m || path.[n - m - 1] = '/')
  in
  match List.find_opt matches (Source_tree.paths t.tree) with
  | Some path -> Source_tree.read t.tree path
  | None -> None

let run_validators t ~path ~type_name value =
  match Validator.validate t.vals ~type_name value with
  | Validator.Fail reason -> err path Validation "%s" reason
  | Validator.Pass -> (
      match source_validator t type_name with
      | None -> Ok ()
      | Some source -> (
          match Validator.of_source ~type_name ~source with
          | Error reason -> err path Validation "%s" reason
          | Ok rule -> (
              match rule.Validator.check value with
              | Validator.Pass -> Ok ()
              | Validator.Fail reason -> err path Validation "%s" reason)))

let compile_cconf t path source =
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
                    | Some name -> run_validators t ~path ~type_name:name normalized
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

let compile t path =
  match Source_tree.read t.tree path with
  | None -> err path Parse "no such source file"
  | Some source -> (
      match Source_tree.kind_of_path path with
      | Source_tree.Cconf -> compile_cconf t path source
      | Source_tree.Raw -> compile_raw path source
      | Source_tree.Cinc | Source_tree.Thrift | Source_tree.Cvalidator ->
          err path Parse "not a config root (modules and schemas are not compiled directly)")

(* The content key of a config: its own source, its transitive import
   closure, and every validator source (plus the validators' own
   imports) — a validator can constrain any typed config, so its text
   is part of every typed compile.  Hashing the closure rather than
   tracking timestamps makes the memo table shareable across source
   trees: a development clone and the live tree that agree on the
   closure bytes agree on the artifact. *)
let closure_hash t path =
  let validator_closure =
    List.concat_map
      (fun v -> v :: Depgraph.transitive_deps t.dep v)
      (Source_tree.paths_of_kind t.tree Source_tree.Cvalidator)
  in
  let closure =
    List.sort_uniq String.compare
      ((path :: Depgraph.transitive_deps t.dep path) @ validator_closure)
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

(* Memoized compile: unchanged transitive closures are never
   re-evaluated.  Only successful artifacts are cached — errors are
   cheap to reproduce and must stay attributable to current sources.
   The [stats] block receives the hit/miss/latency accounting; it
   merges into the shared counters at the pool's join. *)
let compile_memo t stats path =
  let key = closure_hash t path in
  match Cache.find t.cache key with
  | Some compiled ->
      stats.Cache.lhits <- stats.Cache.lhits + 1;
      Ok compiled
  | None ->
      let started = Sys.time () in
      let result = compile t path in
      stats.Cache.lsamples <- (Sys.time () -. started) :: stats.Cache.lsamples;
      stats.Cache.lmisses <- stats.Cache.lmisses + 1;
      (match result with
      | Ok compiled -> Cache.store t.cache key compiled
      | Error _ -> ());
      result

(* Collect: topologically level-order the targets from the dependency
   graph, fan each level out to the domain pool (workers claim configs
   with one fetch-and-add; per-domain counter blocks merge at each
   level's join), then fold the results into ([oks], [errors]), both
   in [targets] order.  Because distinct config paths have distinct
   closure hashes (a config's own path and source are part of its
   closure), no two in-flight compiles share a memo key — hit/miss
   totals and the assembled output are identical at any domain count,
   bit for bit.  Without [pool], a 1-domain pool runs every level
   inline on the caller. *)
let collect ?(pool = Cm_parallel.Pool.create ()) t targets =
  let results = Hashtbl.create (max 16 (List.length targets)) in
  List.iter
    (fun level ->
      let level = Array.of_list level in
      let out =
        Cm_parallel.Pool.map_local pool ~local:Cache.local
          ~f:(compile_memo t) ~merge:(Cache.merge t.cache) level
      in
      Array.iteri (fun i result -> Hashtbl.replace results level.(i) result) out)
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

let compile_all ?pool t =
  collect ?pool t
    (Source_tree.paths_of_kind t.tree Source_tree.Cconf
    @ Source_tree.paths_of_kind t.tree Source_tree.Raw)
