type value =
  | V_null
  | V_bool of bool
  | V_int of int
  | V_float of float
  | V_str of string
  | V_list of value list
  | V_map of (value * value) list
  | V_struct of string * (string * value) list
  | V_enum of string * string
  | V_closure of closure
  | V_builtin of string * (runtime -> Ast.pos -> value list -> value)

and runtime = {
  call : value -> value list -> value;
  charge : Ast.pos -> int -> unit;
}

and closure = {
  cname : string;
  cparams : Ast.param list;
  cbody : Ast.expr;
  cenv : env;
}

and env = {
  table : (string, value) Hashtbl.t;
  mutable imports : (string, value) Hashtbl.t list;
      (** exports of the modules a file imported, latest first *)
  parent : env option;
}

type error = { line : int; message : string }

exception Runtime_error of error

let pp_error ppf { line; message } =
  Format.fprintf ppf "runtime error at line %d: %s" line message

let fail (pos : Ast.pos) fmt =
  Printf.ksprintf (fun message -> raise (Runtime_error { line = pos.Ast.line; message })) fmt

let rec pp_value ppf = function
  | V_null -> Format.pp_print_string ppf "null"
  | V_bool b -> Format.pp_print_bool ppf b
  | V_int n -> Format.pp_print_int ppf n
  | V_float f -> Format.fprintf ppf "%g" f
  | V_str s -> Format.fprintf ppf "%S" s
  | V_list items ->
      Format.fprintf ppf "[@[%a@]]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_value)
        items
  | V_map pairs ->
      let pp_pair ppf (k, v) = Format.fprintf ppf "%a: %a" pp_value k pp_value v in
      Format.fprintf ppf "{@[%a@]}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_pair)
        pairs
  | V_struct (name, fields) ->
      let pp_field ppf (k, v) = Format.fprintf ppf "%s = %a" k pp_value v in
      Format.fprintf ppf "%s {@[%a@]}" name
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp_field)
        fields
  | V_enum (ty, member) -> Format.fprintf ppf "%s.%s" ty member
  | V_closure { cname; _ } -> Format.fprintf ppf "<function %s>" cname
  | V_builtin (name, _) -> Format.fprintf ppf "<builtin %s>" name

let type_name = function
  | V_null -> "null"
  | V_bool _ -> "bool"
  | V_int _ -> "int"
  | V_float _ -> "float"
  | V_str _ -> "string"
  | V_list _ -> "list"
  | V_map _ -> "map"
  | V_struct (name, _) -> "struct " ^ name
  | V_enum (name, _) -> "enum " ^ name
  | V_closure _ | V_builtin _ -> "function"

let no_pos = { Ast.line = 0 }

module Smap = Map.Make (String)
module Sset = Set.Make (String)

(* [charge n] before comparing the [n] elements of two compound
   values: a value can share structure ([d([x, x])] doubles in one
   step), so a comparison can walk a tree exponentially larger than the
   evaluation that built it.  Scalars compare free. *)
let rec equal charge a b =
  match a, b with
  | V_null, V_null -> true
  | V_bool x, V_bool y -> x = y
  | V_int x, V_int y -> x = y
  | V_float x, V_float y -> x = y
  | V_int x, V_float y | V_float y, V_int x -> float_of_int x = y
  | V_str x, V_str y -> String.equal x y
  | V_list xs, V_list ys ->
      List.length xs = List.length ys
      && (charge (List.length xs);
          List.for_all2 (equal charge) xs ys)
  | V_map xs, V_map ys ->
      List.length xs = List.length ys
      && (charge (List.length xs);
          List.for_all2
            (fun (k1, v1) (k2, v2) -> equal charge k1 k2 && equal charge v1 v2)
            xs ys)
  | V_struct (n1, f1), V_struct (n2, f2) ->
      String.equal n1 n2
      && List.length f1 = List.length f2
      && (charge (List.length f1);
          List.for_all2
            (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal charge v1 v2)
            f1 f2)
  | V_enum (t1, m1), V_enum (t2, m2) -> String.equal t1 t2 && String.equal m1 m2
  | (V_closure _ | V_builtin _), _ | _, (V_closure _ | V_builtin _) ->
      fail no_pos "cannot compare functions"
  | ( ( V_null | V_bool _ | V_int _ | V_float _ | V_str _ | V_list _ | V_map _
      | V_struct _ | V_enum _ ),
      _ ) ->
      false

let value_equal a b = equal ignore a b

(* The pairs of a map indexed for key lookup.  [find] returns what the
   first-match scan [List.find_opt (fun (k2, _) -> equal charge k k2)]
   returns -- the same pair, the same charges, the same failure on a
   function key -- but looks a scalar key up instead of scanning: scalar
   comparisons cost no fuel, so a scan per key of another map was
   quadratic unmetered work.  Compound keys still scan, over the
   compound keys only (a compound never equals a scalar, for free), and
   a function on either side, which fails the comparison, scans
   everything.  String keys, all a map literal can hold, get a table of
   their own.  An int equals a float of the same value, so an int key
   is also indexed under its float value, apart from the float keys:
   two distinct ints can share a float value.  A NaN equals nothing. *)
module Key_index = struct
  type scalar =
    | K_null
    | K_bool of bool
    | K_int of int
    | K_float of float
    | K_int_as_float of float
    | K_enum of string * string

  type t = {
    pairs : (value * value) list;
    strings : (string, value * value) Hashtbl.t;  (** first pair per key *)
    scalars : (scalar, int * (value * value)) Hashtbl.t;
        (** first position and pair per key *)
    compound : (value * value) list;  (** pairs with a compound key, in order *)
    has_function : bool;  (** some key is a function *)
  }

  (* What a non-string scalar key is indexed under, or looks up. *)
  let scalar_keys ~probe = function
    | V_null -> [ K_null ]
    | V_bool b -> [ K_bool b ]
    | V_int x ->
        let y = float_of_int x in
        [ K_int x; (if probe then K_float y else K_int_as_float y) ]
    | V_float y when Float.is_nan y -> []
    | V_float y -> if probe then [ K_float y; K_int_as_float y ] else [ K_float y ]
    | V_enum (ty, member) -> [ K_enum (ty, member) ]
    | V_str _ | V_list _ | V_map _ | V_struct _ | V_closure _ | V_builtin _ -> []

  let create pairs =
    let strings = Hashtbl.create 16 and scalars = Hashtbl.create 16 in
    let first table key entry = if not (Hashtbl.mem table key) then Hashtbl.add table key entry in
    let compound = ref [] and has_function = ref false in
    List.iteri
      (fun i ((k, _) as pair) ->
        match k with
        | V_str s -> first strings s pair
        | V_null | V_bool _ | V_int _ | V_float _ | V_enum _ ->
            List.iter (fun key -> first scalars key (i, pair)) (scalar_keys ~probe:false k)
        | V_list _ | V_map _ | V_struct _ -> compound := pair :: !compound
        | V_closure _ | V_builtin _ -> has_function := true)
      pairs;
    { pairs; strings; scalars; compound = List.rev !compound; has_function = !has_function }

  let find charge t k =
    let scan pairs = List.find_opt (fun (k2, _) -> equal charge k k2) pairs in
    let earliest best key =
      match Hashtbl.find_opt t.scalars key, best with
      | Some (i, pair), Some (j, _) when i < j -> Some (i, pair)
      | Some hit, None -> Some hit
      | _ -> best
    in
    match k with
    | _ when t.has_function -> scan t.pairs
    | V_closure _ | V_builtin _ -> scan t.pairs
    | V_list _ | V_map _ | V_struct _ -> scan t.compound
    | V_str s -> Hashtbl.find_opt t.strings s
    | V_null | V_bool _ | V_int _ | V_float _ | V_enum _ ->
        Option.map snd (List.fold_left earliest None (scalar_keys ~probe:true k))

  let mem charge t k = Option.is_some (find charge t k)
end

(* Environments: a mutable table per scope, chained.  Mutability gives
   Python-like visibility (a def can call a later def at call time).
   A file's scope also holds, by reference, the export table of each
   module it imported: a name resolves to the file's own table, then to
   the latest import that exports it.  The latest binding of a name wins:
   a file's own binding made after an import shadows it, and an import
   copies into the file's table only the names it rebinds there.  A
   file's table is written only while the file evaluates; a loaded
   module's tables are read-only from then on, so importers on any
   domain may share them. *)

let env_create parent = { table = Hashtbl.create 16; imports = []; parent }

let rec find_import layers name =
  match layers with
  | [] -> None
  | layer :: rest -> (
      match Hashtbl.find_opt layer name with
      | Some _ as found -> found
      | None -> find_import rest name)

let rec env_lookup env name =
  match Hashtbl.find_opt env.table name with
  | Some _ as found -> found
  | None -> (
      match find_import env.imports name with
      | Some _ as found -> found
      | None -> ( match env.parent with Some p -> env_lookup p name | None -> None))

let env_bind env name v = Hashtbl.replace env.table name v

(* Import a module's [exports] into a file's scope: the names already
   bound in the file that the module rebinds take its values. *)
let env_import env exports =
  let shadowed =
    Hashtbl.fold
      (fun name _ acc ->
        match Hashtbl.find_opt exports name with Some v -> (name, v) :: acc | None -> acc)
      env.table []
  in
  List.iter (fun (name, v) -> env_bind env name v) shadowed;
  env.imports <- exports :: env.imports

(* ------------------------------------------------------------------ *)
(* Builtins *)

let want_int pos = function
  | V_int n -> n
  | v -> fail pos "expected int, got %s" (type_name v)

let want_str pos = function
  | V_str s -> s
  | v -> fail pos "expected string, got %s" (type_name v)

let want_list pos = function
  | V_list items -> items
  | v -> fail pos "expected list, got %s" (type_name v)

(* [charge] is called with the size of each node and string before it
   is displayed: a value can share structure ([d([x, x])] doubles in one
   step), so its display can be exponentially longer than the
   evaluation that built it. *)
let rec to_display charge v =
  charge 1;
  match v with
  | V_null -> "null"
  | V_bool b -> string_of_bool b
  | V_int n -> string_of_int n
  | V_float f -> Printf.sprintf "%g" f
  | V_str s ->
      charge (String.length s);
      s
  | V_list items -> "[" ^ String.concat ", " (List.map (to_display charge) items) ^ "]"
  | V_map pairs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> to_display charge k ^ ": " ^ to_display charge v) pairs)
      ^ "}"
  | V_struct (name, fields) ->
      name ^ "{"
      ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ to_display charge v) fields)
      ^ "}"
  | V_enum (ty, member) -> ty ^ "." ^ member
  | V_closure { cname; _ } -> "<function " ^ cname ^ ">"
  | V_builtin (name, _) -> "<builtin " ^ name ^ ">"

(* Each builtin takes the running evaluation's [runtime] when it is
   called -- not when it is bound -- so one builtin environment serves
   every file of every run.  A builtin that builds a result longer than
   its arguments charges the length first. *)
let builtins =
  let arity name n pos args =
    if List.length args <> n then
      fail pos "%s expects %d argument(s), got %d" name n (List.length args)
  in
  [
    ("len",
     fun _ pos args ->
       arity "len" 1 pos args;
       match args with
       | [ V_list items ] -> V_int (List.length items)
       | [ V_str s ] -> V_int (String.length s)
       | [ V_map pairs ] -> V_int (List.length pairs)
       | [ v ] -> fail pos "len: unsupported type %s" (type_name v)
       | _ -> assert false);
    ("str",
     fun rt pos args ->
       arity "str" 1 pos args;
       V_str (to_display (rt.charge pos) (List.hd args)));
    ("int",
     fun _ pos args ->
       arity "int" 1 pos args;
       match args with
       | [ V_int n ] -> V_int n
       | [ V_float f ] -> V_int (int_of_float f)
       | [ V_str s ] -> (
           match int_of_string_opt (String.trim s) with
           | Some n -> V_int n
           | None -> fail pos "int: cannot parse %S" s)
       | [ V_bool b ] -> V_int (if b then 1 else 0)
       | [ v ] -> fail pos "int: unsupported type %s" (type_name v)
       | _ -> assert false);
    ("float",
     fun _ pos args ->
       arity "float" 1 pos args;
       match args with
       | [ V_int n ] -> V_float (float_of_int n)
       | [ V_float f ] -> V_float f
       | [ V_str s ] -> (
           match float_of_string_opt (String.trim s) with
           | Some f -> V_float f
           | None -> fail pos "float: cannot parse %S" s)
       | [ v ] -> fail pos "float: unsupported type %s" (type_name v)
       | _ -> assert false);
    ("keys",
     fun _ pos args ->
       arity "keys" 1 pos args;
       match args with
       | [ V_map pairs ] -> V_list (List.map fst pairs)
       | [ V_struct (_, fields) ] -> V_list (List.map (fun (k, _) -> V_str k) fields)
       | [ v ] -> fail pos "keys: unsupported type %s" (type_name v)
       | _ -> assert false);
    ("values",
     fun _ pos args ->
       arity "values" 1 pos args;
       match args with
       | [ V_map pairs ] -> V_list (List.map snd pairs)
       | [ V_struct (_, fields) ] -> V_list (List.map snd fields)
       | [ v ] -> fail pos "values: unsupported type %s" (type_name v)
       | _ -> assert false);
    ("get",
     fun rt pos args ->
       arity "get" 3 pos args;
       match args with
       | [ V_map pairs; key; default ] -> (
           match List.find_opt (fun (k, _) -> equal (rt.charge pos) k key) pairs with
           | Some (_, v) -> v
           | None -> default)
       | [ v; _; _ ] -> fail pos "get: expected map, got %s" (type_name v)
       | _ -> assert false);
    ("range",
     fun rt pos args ->
       let range lo hi =
         (* [hi - lo] overflows past [max_int]; no budget reaches it. *)
         let n = if hi <= lo then 0 else if hi - lo < 0 then max_int else hi - lo in
         rt.charge pos n;
         V_list (List.init n (fun i -> V_int (lo + i)))
       in
       match args with
       | [ n ] -> range 0 (want_int pos n)
       | [ lo; hi ] -> range (want_int pos lo) (want_int pos hi)
       | _ -> fail pos "range expects 1 or 2 arguments");
    ("map",
     fun rt pos args ->
       arity "map" 2 pos args;
       match args with
       | [ f; V_list items ] -> V_list (List.map (fun item -> rt.call f [ item ]) items)
       | [ _; v ] -> fail pos "map: expected list, got %s" (type_name v)
       | _ -> assert false);
    ("filter",
     fun rt pos args ->
       arity "filter" 2 pos args;
       match args with
       | [ f; V_list items ] ->
           V_list
             (List.filter
                (fun item ->
                  match rt.call f [ item ] with
                  | V_bool b -> b
                  | v -> fail pos "filter: predicate returned %s" (type_name v))
                items)
       | [ _; v ] -> fail pos "filter: expected list, got %s" (type_name v)
       | _ -> assert false);
    ("sorted",
     fun _ pos args ->
       arity "sorted" 1 pos args;
       let items = want_list pos (List.hd args) in
       let cmp a b =
         match a, b with
         | V_int x, V_int y -> Int.compare x y
         | V_float x, V_float y -> Float.compare x y
         | V_int x, V_float y -> Float.compare (float_of_int x) y
         | V_float x, V_int y -> Float.compare x (float_of_int y)
         | V_str x, V_str y -> String.compare x y
         | _ -> fail pos "sorted: cannot order %s and %s" (type_name a) (type_name b)
       in
       V_list (List.sort cmp items));
    ("sum",
     fun _ pos args ->
       arity "sum" 1 pos args;
       let items = want_list pos (List.hd args) in
       let total =
         List.fold_left
           (fun acc item ->
             match acc, item with
             | V_int a, V_int b -> V_int (a + b)
             | V_int a, V_float b -> V_float (float_of_int a +. b)
             | V_float a, V_int b -> V_float (a +. float_of_int b)
             | V_float a, V_float b -> V_float (a +. b)
             | _, v -> fail pos "sum: non-numeric element %s" (type_name v))
           (V_int 0) items
       in
       total);
    ("min",
     fun _ pos args ->
       match args with
       | [ V_int a; V_int b ] -> V_int (min a b)
       | [ a; b ] -> (
           match a, b with
           | (V_int _ | V_float _), (V_int _ | V_float _) ->
               let fa = (match a with V_int n -> float_of_int n | V_float f -> f | _ -> 0.0) in
               let fb = (match b with V_int n -> float_of_int n | V_float f -> f | _ -> 0.0) in
               if fa <= fb then a else b
           | _ -> fail pos "min: non-numeric arguments")
       | _ -> fail pos "min expects 2 arguments");
    ("max",
     fun _ pos args ->
       match args with
       | [ V_int a; V_int b ] -> V_int (max a b)
       | [ a; b ] -> (
           match a, b with
           | (V_int _ | V_float _), (V_int _ | V_float _) ->
               let fa = (match a with V_int n -> float_of_int n | V_float f -> f | _ -> 0.0) in
               let fb = (match b with V_int n -> float_of_int n | V_float f -> f | _ -> 0.0) in
               if fa >= fb then a else b
           | _ -> fail pos "max: non-numeric arguments")
       | _ -> fail pos "max expects 2 arguments");
    ("abs",
     fun _ pos args ->
       arity "abs" 1 pos args;
       match args with
       | [ V_int n ] -> V_int (abs n)
       | [ V_float f ] -> V_float (Float.abs f)
       | [ v ] -> fail pos "abs: unsupported type %s" (type_name v)
       | _ -> assert false);
    ("contains",
     fun rt pos args ->
       arity "contains" 2 pos args;
       match args with
       | [ V_list items; v ] -> V_bool (List.exists (equal (rt.charge pos) v) items)
       | [ V_map pairs; k ] ->
           V_bool (List.exists (fun (key, _) -> equal (rt.charge pos) key k) pairs)
       | [ V_str s; V_str sub ] ->
           let n = String.length s and m = String.length sub in
           let rec scan i = m = 0 || (i + m <= n && (String.sub s i m = sub || scan (i + 1))) in
           V_bool (scan 0)
       | [ a; _ ] -> fail pos "contains: unsupported container %s" (type_name a)
       | _ -> assert false);
    ("join",
     fun rt pos args ->
       arity "join" 2 pos args;
       match args with
       | [ V_str sep; V_list items ] ->
           let items = List.map (fun v -> want_str pos v) items in
           rt.charge pos
             (List.fold_left (fun n s -> n + String.length sep + String.length s) 0 items);
           V_str (String.concat sep items)
       | _ -> fail pos "join expects (separator, list of strings)");
    ("split",
     fun _ pos args ->
       arity "split" 2 pos args;
       match args with
       | [ V_str s; V_str sep ] when String.length sep = 1 ->
           V_list (List.map (fun part -> V_str part) (String.split_on_char sep.[0] s))
       | _ -> fail pos "split expects (string, single-char separator)");
    ("upper",
     fun _ pos args ->
       arity "upper" 1 pos args;
       V_str (String.uppercase_ascii (want_str pos (List.hd args))));
    ("lower",
     fun _ pos args ->
       arity "lower" 1 pos args;
       V_str (String.lowercase_ascii (want_str pos (List.hd args))));
    ("merge",
     fun rt pos args ->
       arity "merge" 2 pos args;
       match args with
       | [ V_map a; V_map b ] ->
           (* Right-biased merge: b's bindings win. *)
           let in_b = Key_index.create b in
           V_map (List.filter (fun (k, _) -> not (Key_index.mem (rt.charge pos) in_b k)) a @ b)
       | _ -> fail pos "merge expects two maps");
    ("format",
     fun rt pos args ->
       (* format("%s listens on %d", name, port): %s any value,
          %d integers, %f floats, %% a literal percent. *)
       match args with
       | V_str template :: rest ->
           let buf = Buffer.create (String.length template + 16) in
           let remaining = ref rest in
           let next kind =
             match !remaining with
             | [] -> fail pos "format: not enough arguments for %%%c" kind
             | v :: more ->
                 remaining := more;
                 v
           in
           let n = String.length template in
           let i = ref 0 in
           while !i < n do
             (if template.[!i] = '%' && !i + 1 < n then begin
                (match template.[!i + 1] with
                | 's' -> Buffer.add_string buf (to_display (rt.charge pos) (next 's'))
                | 'd' -> (
                    match next 'd' with
                    | V_int v -> Buffer.add_string buf (string_of_int v)
                    | v -> fail pos "format: %%d expects int, got %s" (type_name v))
                | 'f' -> (
                    match next 'f' with
                    | V_float v -> Buffer.add_string buf (Printf.sprintf "%g" v)
                    | V_int v -> Buffer.add_string buf (Printf.sprintf "%g" (float_of_int v))
                    | v -> fail pos "format: %%f expects number, got %s" (type_name v))
                | '%' -> Buffer.add_char buf '%'
                | c -> fail pos "format: unknown directive %%%c" c);
                i := !i + 2
              end
              else begin
                Buffer.add_char buf template.[!i];
                incr i
              end)
           done;
           if !remaining <> [] then
             fail pos "format: %d unused argument(s)" (List.length !remaining);
           V_str (Buffer.contents buf)
       | _ -> fail pos "format: first argument must be a string");
    ("override",
     fun rt pos args ->
       (* Config inheritance (the paper's §8 "introducing config
          inheritance"): a derived config is a base struct/map with a
          map of field overrides applied on top.  Nested maps merge
          recursively; anything else is replaced. *)
       arity "override" 2 pos args;
       let rec apply base over =
         match base, over with
         | V_struct (name, fields), V_map over_pairs ->
             (* The first override of each field name wins; one pass
                over each side, not one scan of the other per entry. *)
             let overrides =
               List.fold_left
                 (fun acc (k, v) ->
                   match k with
                   | V_str key when not (Smap.mem key acc) -> Smap.add key v acc
                   | _ -> acc)
                 Smap.empty over_pairs
             in
             let replaced =
               List.map
                 (fun (fname, old) ->
                   match Smap.find_opt fname overrides with
                   | Some v -> fname, apply old v
                   | None -> fname, old)
                 fields
             in
             let field_names = List.fold_left (fun acc (k, _) -> Sset.add k acc) Sset.empty fields in
             let added =
               List.filter_map
                 (fun (k, v) ->
                   match k with
                   | V_str key when not (Sset.mem key field_names) -> Some (key, v)
                   | _ -> None)
                 over_pairs
             in
             V_struct (name, replaced @ added)
         | V_map base_pairs, V_map over_pairs ->
             let overrides = Key_index.create over_pairs in
             let replaced =
               List.map
                 (fun (k, old) ->
                   match Key_index.find (rt.charge pos) overrides k with
                   | Some (_, v) -> k, apply old v
                   | None -> k, old)
                 base_pairs
             in
             let in_base = Key_index.create base_pairs in
             let added =
               List.filter
                 (fun (k, _) -> not (Key_index.mem (rt.charge pos) in_base k))
                 over_pairs
             in
             V_map (replaced @ added)
         | (V_struct _ | V_map _), _ | _, _ -> over
       in
       match args with
       | [ base; (V_map _ as over) ] -> apply base over
       | [ _; v ] -> fail pos "override: second argument must be a map, got %s" (type_name v)
       | _ -> assert false);
    ("with_field",
     fun _ pos args ->
       arity "with_field" 3 pos args;
       match args with
       | [ V_struct (name, fields); V_str fname; v ] ->
           let replaced = ref false in
           let fields =
             List.map
               (fun (k, old) ->
                 if k = fname then begin
                   replaced := true;
                   k, v
                 end
                 else k, old)
               fields
           in
           V_struct (name, if !replaced then fields else fields @ [ fname, v ])
       | _ -> fail pos "with_field expects (struct, field name, value)");
  ]

(* ------------------------------------------------------------------ *)
(* Evaluation *)

(* The module table.  One table serves every run of one compile: each
   module is parsed and evaluated once, by itself, into an entry that
   runs then only replay.  A module's value depends only on its own
   closure -- its source, the modules and Thrift files it imports -- so
   the same closure bytes give the same bindings whoever imports it.

   An entry records what loading the module does to a run: the import
   statements it executes, in order ([events]), and how it ends -- its
   top-level bindings, a runtime error of its own, or the failure of its
   last import.  A run replays the events against its own import stack,
   loaded set, load order and schema, so cycle reports, first-load
   order and the merge order of Thrift schemas come out as if each run
   had loaded every module itself.  Entries are written only by
   {!Modules.add}, on the domain that builds the table; runs only read. *)

type idl_entry = Idl_missing | Idl of Cm_thrift.Schema.t | Idl_error of Cm_thrift.Idl.error

type event = Import_module of string * Ast.pos | Import_idl of string * Ast.pos

type module_entry =
  | Missing
  | Unparsable of string  (** "parse error at line N: ..." *)
  | Evaluated of { events : event list; result : ((string, value) Hashtbl.t, stop) result }
      (** [result]: the module's exports *)

and stop =
  | Own_error of error  (** a statement other than an import failed *)
  | Failed_import  (** the last event failed; a replay fails there too *)

type modules = {
  loader : string -> string option;
  entries : (string, module_entry) Hashtbl.t;
  idls : (string, idl_entry) Hashtbl.t;
  mutable building : string list;  (** entries under construction, innermost first *)
  mutable evaluations : int;
}

(* Raised when a module under construction imports one that is itself
   under construction: an import cycle, which fails every run that
   reaches it, so the importing statement is recorded as failed. *)
exception Building

type run_ctx = {
  modules : modules;
  mutable loading : string list;  (** stack for cycle detection *)
  mutable loaded_modules : (string, value) Hashtbl.t Smap.t;  (** exports of modules loaded *)
  mutable schema : Cm_thrift.Schema.t;
  mutable loaded_order : string list;  (** reversed *)
  mutable fuel : int;  (** steps left of [step_budget] *)
  mutable depth : int;  (** closure calls in progress *)
  runtime : runtime;  (** what builtins apply functions and charge with *)
}

(* Bounds on one file's evaluation -- a run's root, or a module
   evaluating by itself: [step_budget] steps, one per expression
   evaluated plus the length of every list or string that [range],
   [join], [*] or [+] builds and of every value [str] or [format]
   displays (charged before it is built) and the elements of every
   compound value a comparison descends into; and [max_depth] nested
   closure calls.  A hostile source thus fails with an error at the
   line that spent the budget instead of pinning or exhausting the
   compiling host; no real config comes near either. *)
let step_budget = 4_000_000
let max_depth = 10_000

let spend ctx pos n =
  if n > ctx.fuel then fail pos "evaluation exceeded its budget of %d steps" step_budget;
  ctx.fuel <- ctx.fuel - n

(* [a * b] for [a, b >= 0], saturating at [max_int]. *)
let length_product a b = if b <> 0 && a > max_int / b then max_int else a * b

let rec eval ctx env (expr : Ast.expr) =
  let pos = expr.Ast.pos in
  spend ctx pos 1;
  match expr.Ast.desc with
  | Ast.Int n -> V_int n
  | Ast.Float f -> V_float f
  | Ast.Str s -> V_str s
  | Ast.Bool b -> V_bool b
  | Ast.Null -> V_null
  | Ast.Var name -> (
      match env_lookup env name with
      | Some v -> v
      | None -> fail pos "unbound variable %s" name)
  | Ast.List_lit items -> V_list (List.map (eval ctx env) items)
  | Ast.Map_lit pairs ->
      V_map (List.map (fun (k, v) -> eval ctx env k, eval ctx env v) pairs)
  | Ast.Struct_lit (name, fields) ->
      V_struct (name, List.map (fun (k, v) -> k, eval ctx env v) fields)
  | Ast.Field (base, member) -> eval_field ctx env pos base member
  | Ast.Index (base, idx) -> (
      let base_v = eval ctx env base in
      let idx_v = eval ctx env idx in
      match base_v, idx_v with
      | V_list items, V_int i ->
          let n = List.length items in
          let i = if i < 0 then n + i else i in
          if i < 0 || i >= n then fail pos "index %d out of bounds (length %d)" i n
          else List.nth items i
      | V_map pairs, key -> (
          match List.find_opt (fun (k, _) -> equal (spend ctx pos) k key) pairs with
          | Some (_, v) -> v
          | None -> fail pos "key %s not found in map" (to_display (spend ctx pos) key))
      | V_str s, V_int i ->
          let n = String.length s in
          let i = if i < 0 then n + i else i in
          if i < 0 || i >= n then fail pos "index %d out of bounds (length %d)" i n
          else V_str (String.make 1 s.[i])
      | v, _ -> fail pos "cannot index %s" (type_name v))
  | Ast.Call (callee, args) ->
      let callee_v = eval ctx env callee in
      let args_v = List.map (eval ctx env) args in
      apply ctx pos callee_v args_v
  | Ast.Unop (Ast.Neg, operand) -> (
      match eval ctx env operand with
      | V_int n -> V_int (-n)
      | V_float f -> V_float (-.f)
      | v -> fail pos "cannot negate %s" (type_name v))
  | Ast.Unop (Ast.Not, operand) -> (
      match eval ctx env operand with
      | V_bool b -> V_bool (not b)
      | v -> fail pos "not: expected bool, got %s" (type_name v))
  | Ast.Binop (Ast.And, left, right) -> (
      match eval ctx env left with
      | V_bool false -> V_bool false
      | V_bool true -> (
          match eval ctx env right with
          | V_bool b -> V_bool b
          | v -> fail pos "and: expected bool, got %s" (type_name v))
      | v -> fail pos "and: expected bool, got %s" (type_name v))
  | Ast.Binop (Ast.Or, left, right) -> (
      match eval ctx env left with
      | V_bool true -> V_bool true
      | V_bool false -> (
          match eval ctx env right with
          | V_bool b -> V_bool b
          | v -> fail pos "or: expected bool, got %s" (type_name v))
      | v -> fail pos "or: expected bool, got %s" (type_name v))
  | Ast.Binop (op, left, right) ->
      eval_binop ctx pos op (eval ctx env left) (eval ctx env right)
  | Ast.If (cond, then_branch, else_branch) -> (
      match eval ctx env cond with
      | V_bool true -> eval ctx env then_branch
      | V_bool false -> eval ctx env else_branch
      | v -> fail pos "if condition must be bool, got %s" (type_name v))
  | Ast.Let (name, bound, body) ->
      let scope = env_create (Some env) in
      env_bind scope name (eval ctx env bound);
      eval ctx scope body

and eval_field ctx env pos base member =
  (* [Enum.MEMBER] when the base identifier is an enum type name that
     is not shadowed by a binding. *)
  let enum_ref =
    match base.Ast.desc with
    | Ast.Var name when env_lookup env name = None -> (
        match Cm_thrift.Schema.find_enum ctx.schema name with
        | Some enum ->
            if Cm_thrift.Schema.enum_member enum member = None then
              fail pos "%s is not a member of enum %s" member name
            else Some (V_enum (name, member))
        | None -> None)
    | _ -> None
  in
  match enum_ref with
  | Some v -> v
  | None -> (
      match eval ctx env base with
      | V_struct (sname, fields) -> (
          match List.assoc_opt member fields with
          | Some v -> v
          | None -> fail pos "struct %s has no field %s" sname member)
      | V_map pairs -> (
          match List.find_opt (fun (k, _) -> value_equal k (V_str member)) pairs with
          | Some (_, v) -> v
          | None -> fail pos "key %s not found in map" member)
      | v -> fail pos "cannot access field %s of %s" member (type_name v))

and eval_binop ctx pos op left right =
  let arith int_op float_op =
    match left, right with
    | V_int a, V_int b -> V_int (int_op a b)
    | V_float a, V_float b -> V_float (float_op a b)
    | V_int a, V_float b -> V_float (float_op (float_of_int a) b)
    | V_float a, V_int b -> V_float (float_op a (float_of_int b))
    | _ ->
        fail pos "%s: unsupported operands %s and %s" (Ast.binop_name op) (type_name left)
          (type_name right)
  in
  let numeric_cmp cmp =
    match left, right with
    | V_int a, V_int b -> V_bool (cmp (Int.compare a b) 0)
    | (V_int _ | V_float _), (V_int _ | V_float _) ->
        let fa = (match left with V_int n -> float_of_int n | V_float f -> f | _ -> 0.0) in
        let fb = (match right with V_int n -> float_of_int n | V_float f -> f | _ -> 0.0) in
        V_bool (cmp (Float.compare fa fb) 0)
    | V_str a, V_str b -> V_bool (cmp (String.compare a b) 0)
    | _ ->
        fail pos "%s: cannot compare %s and %s" (Ast.binop_name op) (type_name left)
          (type_name right)
  in
  match op with
  | Ast.Add -> (
      match left, right with
      | V_str a, V_str b ->
          spend ctx pos (String.length a + String.length b);
          V_str (a ^ b)
      | V_list a, V_list b ->
          spend ctx pos (List.length a + List.length b);
          V_list (a @ b)
      | _ -> arith ( + ) ( +. ))
  | Ast.Sub -> arith ( - ) ( -. )
  | Ast.Mul -> (
      match left, right with
      | V_str s, V_int n when n >= 0 ->
          spend ctx pos (length_product (String.length s) n);
          V_str (String.concat "" (List.init n (fun _ -> s)))
      | _ -> arith ( * ) ( *. ))
  | Ast.Div -> (
      match left, right with
      | V_int _, V_int 0 -> fail pos "division by zero"
      | _ -> arith ( / ) ( /. ))
  | Ast.Mod -> (
      match left, right with
      | V_int _, V_int 0 -> fail pos "modulo by zero"
      | V_int a, V_int b -> V_int (a mod b)
      | _ -> fail pos "%%: integer operands required")
  | Ast.Eq -> V_bool (equal (spend ctx pos) left right)
  | Ast.Ne -> V_bool (not (equal (spend ctx pos) left right))
  | Ast.Lt -> numeric_cmp (fun c z -> c < z)
  | Ast.Le -> numeric_cmp (fun c z -> c <= z)
  | Ast.Gt -> numeric_cmp (fun c z -> c > z)
  | Ast.Ge -> numeric_cmp (fun c z -> c >= z)
  | Ast.And | Ast.Or -> assert false (* short-circuited above *)

and apply ctx pos callee args =
  match callee with
  | V_builtin (_, fn) -> fn ctx.runtime pos args
  | V_closure { cname; cparams; cbody; cenv } ->
      let scope = env_create (Some cenv) in
      (* Parameters and arguments in one walk. *)
      let rec bind params rest =
        match params, rest with
        | [], [] -> ()
        | [], _ :: _ ->
            fail pos "%s expects at most %d argument(s), got %d" cname (List.length cparams)
              (List.length args)
        | param :: params, arg :: rest ->
            env_bind scope param.Ast.pname arg;
            bind params rest
        | param :: params, [] ->
            (match param.Ast.pdefault with
            | Some default -> env_bind scope param.Ast.pname (eval ctx cenv default)
            | None -> fail pos "%s: missing argument %s" cname param.Ast.pname);
            bind params []
      in
      bind cparams args;
      if ctx.depth >= max_depth then fail pos "%s: calls nested deeper than %d" cname max_depth;
      ctx.depth <- ctx.depth + 1;
      let v = eval ctx scope cbody in
      ctx.depth <- ctx.depth - 1;
      v
  | v -> fail pos "not callable: %s" (type_name v)

(* ------------------------------------------------------------------ *)
(* Files and imports *)

let new_ctx modules ~loading =
  let rec ctx =
    {
      modules;
      loading;
      loaded_modules = Smap.empty;
      schema = Cm_thrift.Schema.empty;
      loaded_order = [];
      fuel = step_budget;
      depth = 0;
      runtime =
        {
          call = (fun callee args -> apply ctx no_pos callee args);
          charge = (fun pos n -> spend ctx pos n);
        };
    }
  in
  ctx

(* The parent of every file's environment. *)
let builtins_env =
  let env = env_create None in
  List.iter (fun (name, fn) -> env_bind env name (V_builtin (name, fn))) builtins;
  env

(* The top-level [Bind]/[Def] bindings of an evaluated file, in
   statement order, with their final values. *)
let own_bindings env (file : Ast.file) =
  List.filter_map
    (fun (stmt, _) ->
      match stmt with
      | Ast.Bind (name, _) | Ast.Def (name, _, _) ->
          Option.map (fun v -> name, v) (Hashtbl.find_opt env.table name)
      | Ast.Import _ | Ast.Import_thrift _ | Ast.Export _ -> None)
    file.Ast.stmts

(* What importing an evaluated module binds: its own bindings and the
   names it imported (the paper's [import_python("x.cinc", "*")]), each
   at its final value -- except imported builtins. *)
let file_exports env (file : Ast.file) =
  let exports = Hashtbl.create 16 in
  List.iter
    (fun layer -> Hashtbl.iter (fun name v -> Hashtbl.replace exports name v) layer)
    (List.rev env.imports);
  Hashtbl.iter (fun name v -> Hashtbl.replace exports name v) env.table;
  let locals =
    List.fold_left (fun acc (name, _) -> Sset.add name acc) Sset.empty (own_bindings env file)
  in
  Hashtbl.filter_map_inplace
    (fun name v ->
      match v with V_builtin _ when not (Sset.mem name locals) -> None | _ -> Some v)
    exports;
  exports

let rec exec ctx env export (stmt, pos) =
  match stmt with
  | Ast.Import target -> env_import env (load_module ctx pos target)
  | Ast.Import_thrift target -> load_thrift ctx pos target
  | Ast.Bind (name, expr) -> env_bind env name (eval ctx env expr)
  | Ast.Def (name, params, body) ->
      env_bind env name (V_closure { cname = name; cparams = params; cbody = body; cenv = env })
  | Ast.Export expr -> export := Some (eval ctx env expr)

and load_module ctx pos target =
  match Smap.find_opt target ctx.loaded_modules with
  | Some exports -> exports
  | None -> (
      if List.mem target ctx.loading then
        fail pos "import cycle: %s" (String.concat " -> " (List.rev (target :: ctx.loading)));
      match module_entry ctx.modules pos target with
      | Missing -> fail pos "cannot find import %s" target
      | Unparsable message -> fail pos "in %s: %s" target message
      | Evaluated { events; result } -> (
          ctx.loading <- target :: ctx.loading;
          ctx.loaded_order <- target :: ctx.loaded_order;
          (* A failure inside the module reads at this import, with the
             module's own line, as an unparsable module does. *)
          let inside { line; message } = fail pos "in %s: line %d: %s" target line message in
          (try List.iter (replay ctx) events with Runtime_error e -> inside e);
          match result with
          | Ok exports ->
              ctx.loading <- List.tl ctx.loading;
              ctx.loaded_modules <- Smap.add target exports ctx.loaded_modules;
              exports
          | Error (Own_error e) -> inside e
          | Error Failed_import ->
              fail pos "import of %s succeeded where its module entry failed" target))

and replay ctx = function
  | Import_module (target, pos) -> ignore (load_module ctx pos target)
  | Import_idl (target, pos) -> load_thrift ctx pos target

and load_thrift ctx pos target =
  let parsed =
    match idl_entry ctx.modules pos target with
    | Idl_missing -> fail pos "cannot find thrift import %s" target
    | Idl schema -> Ok schema
    | Idl_error e -> Error e
  in
  if not (List.mem target ctx.loaded_order) then ctx.loaded_order <- target :: ctx.loaded_order;
  match parsed with
  | Ok schema -> ctx.schema <- Cm_thrift.Schema.merge ctx.schema schema
  | Error e ->
      fail pos "in %s: IDL error at line %d: %s" target e.Cm_thrift.Idl.line
        e.Cm_thrift.Idl.message

(* Outside {!Modules.add} ([building] empty) a run only reads the
   table; a target it lacks was never added, a caller's bug. *)
and module_entry modules pos target =
  match Hashtbl.find_opt modules.entries target with
  | Some entry -> entry
  | None ->
      if modules.building = [] then fail pos "import %s was not added to the module table" target
      else if List.mem target modules.building then raise Building
      else build modules target

and idl_entry modules pos target =
  match Hashtbl.find_opt modules.idls target with
  | Some entry -> entry
  | None ->
      if modules.building = [] then
        fail pos "thrift import %s was not added to the module table" target
      else parse_idl modules target

and parse_idl modules target =
  let entry =
    match modules.loader target with
    | None -> Idl_missing
    | Some source -> (
        match Cm_thrift.Idl.parse source with
        | Ok schema -> Idl schema
        | Error e -> Idl_error e)
  in
  Hashtbl.replace modules.idls target entry;
  entry

and build modules target =
  modules.building <- target :: modules.building;
  let entry =
    Fun.protect
      ~finally:(fun () -> modules.building <- List.tl modules.building)
      (fun () ->
        match modules.loader target with
        | None -> Missing
        | Some source -> (
            match Parser.parse_exn source with
            | exception Parser.Parse_error e ->
                Unparsable
                  (Printf.sprintf "parse error at line %d: %s" e.Parser.line e.Parser.message)
            | exception Lexer.Lex_error e ->
                Unparsable (Printf.sprintf "lex error at line %d: %s" e.Lexer.line e.Lexer.message)
            | file ->
                modules.evaluations <- modules.evaluations + 1;
                evaluate_module modules target file))
  in
  Hashtbl.replace modules.entries target entry;
  entry

(* A module evaluates as the root of its own run, recording each
   import statement it reaches. *)
and evaluate_module modules target (file : Ast.file) =
  let ctx = new_ctx modules ~loading:[ target ] in
  let env = env_create (Some builtins_env) in
  let export = ref None in
  let events = ref [] in
  let rec go = function
    | [] -> Ok (file_exports env file)
    | ((stmt, pos) as s) :: rest -> (
        let import =
          match stmt with
          | Ast.Import t -> Some (Import_module (t, pos))
          | Ast.Import_thrift t -> Some (Import_idl (t, pos))
          | Ast.Bind _ | Ast.Def _ | Ast.Export _ -> None
        in
        Option.iter (fun ev -> events := ev :: !events) import;
        match exec ctx env export s with
        | () -> go rest
        | exception Building -> Error Failed_import
        | exception Runtime_error e ->
            Error (if Option.is_some import then Failed_import else Own_error e))
  in
  let result = go file.Ast.stmts in
  Evaluated { events = List.rev !events; result }

module Modules = struct
  type t = modules

  let create ~loader =
    { loader; entries = Hashtbl.create 16; idls = Hashtbl.create 8; building = []; evaluations = 0 }

  let add t target = if not (Hashtbl.mem t.entries target) then ignore (build t target)
  let add_thrift t target = if not (Hashtbl.mem t.idls target) then ignore (parse_idl t target)

  let add_imports t file =
    List.iter
      (function `Csl target -> add t target | `Thrift target -> add_thrift t target)
      (Ast.imports file)

  let evaluations t = t.evaluations
end

type outcome = {
  bindings : (string * value) list;
  export : value option;
  schema : Cm_thrift.Schema.t;
  loaded : string list;
}

let run ~modules ~path ~source =
  let ctx = new_ctx modules ~loading:[ path ] in
  match
    let file = Parser.parse_exn source in
    let env = env_create (Some builtins_env) in
    let export = ref None in
    List.iter (exec ctx env export) file.Ast.stmts;
    {
      bindings = own_bindings env file;
      export = !export;
      schema = ctx.schema;
      loaded = List.rev ctx.loaded_order;
    }
  with
  | outcome -> Ok outcome
  | exception Runtime_error e -> Error e
  | exception Parser.Parse_error e ->
      Error { line = e.Parser.line; message = e.Parser.message }
  | exception Lexer.Lex_error e -> Error { line = e.Lexer.line; message = e.Lexer.message }

(* ------------------------------------------------------------------ *)
(* Conversions *)

(* At most [step_budget] nodes, for the reason [to_display] charges:
   a shared-structure value's tree can be exponentially larger than
   the evaluation that built it. *)
let to_thrift v =
  let nodes = ref 0 in
  let rec node v =
    incr nodes;
    if !nodes > step_budget then
      Error (Printf.sprintf "value has more than %d nodes" step_budget)
    else
      match v with
      | V_null -> Error "null is not serializable"
      | V_bool b -> Ok (Cm_thrift.Value.Bool b)
      | V_int n -> Ok (Cm_thrift.Value.Int n)
      | V_float f -> Ok (Cm_thrift.Value.Double f)
      | V_str s -> Ok (Cm_thrift.Value.Str s)
      | V_list items ->
          let rec convert acc = function
            | [] -> Ok (Cm_thrift.Value.List (List.rev acc))
            | item :: rest -> (
                match node item with
                | Ok v -> convert (v :: acc) rest
                | Error _ as e -> e)
          in
          convert [] items
      | V_map pairs ->
          let rec convert acc = function
            | [] -> Ok (Cm_thrift.Value.Map (List.rev acc))
            | (k, v) :: rest -> (
                match node k, node v with
                | Ok tk, Ok tv -> convert ((tk, tv) :: acc) rest
                | Error e, _ | _, Error e -> Error e)
          in
          convert [] pairs
      | V_struct (name, fields) ->
          let rec convert acc = function
            | [] -> Ok (Cm_thrift.Value.Struct (name, List.rev acc))
            | (k, v) :: rest -> (
                match node v with
                | Ok tv -> convert ((k, tv) :: acc) rest
                | Error _ as e -> e)
          in
          convert [] fields
      | V_enum (ty, member) -> Ok (Cm_thrift.Value.Enum (ty, member))
      | (V_closure _ | V_builtin _) as v ->
          Error (Printf.sprintf "%s is not serializable" (type_name v))
  in
  node v

let rec of_thrift = function
  | Cm_thrift.Value.Bool b -> V_bool b
  | Cm_thrift.Value.Int n -> V_int n
  | Cm_thrift.Value.Double f -> V_float f
  | Cm_thrift.Value.Str s -> V_str s
  | Cm_thrift.Value.List items -> V_list (List.map of_thrift items)
  | Cm_thrift.Value.Map pairs ->
      V_map (List.map (fun (k, v) -> of_thrift k, of_thrift v) pairs)
  | Cm_thrift.Value.Struct (name, fields) ->
      V_struct (name, List.map (fun (k, v) -> k, of_thrift v) fields)
  | Cm_thrift.Value.Enum (ty, member) -> V_enum (ty, member)

(* Never written: an expression has no imports to add. *)
let no_modules = Modules.create ~loader:(fun _ -> None)

let eval_expr_standalone ?(bindings = []) expr =
  let ctx = new_ctx no_modules ~loading:[] in
  let env = env_create (Some builtins_env) in
  List.iter (fun (name, v) -> env_bind env name v) bindings;
  match eval ctx env expr with
  | v -> Ok v
  | exception Runtime_error e -> Error e
