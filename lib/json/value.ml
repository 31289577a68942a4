type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

let obj fields = Assoc fields

let member key = function
  | Assoc fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let rec path keys json =
  match keys with
  | [] -> Some json
  | key :: rest -> (
      match member key json with
      | Some v -> path rest v
      | None -> None)

let index i = function
  | List items -> List.nth_opt items i
  | Null | Bool _ | Int _ | Float _ | String _ | Assoc _ -> None

let to_int = function Int n -> Some n | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_string = function String s -> Some s | _ -> None
let to_list = function List items -> Some items | _ -> None

let rec equal a b =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | String x, String y -> String.equal x y
  | List xs, List ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Assoc xs, Assoc ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           xs ys
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Assoc _), _ -> false

let rec canonicalize = function
  | (Null | Bool _ | Int _ | Float _ | String _) as scalar -> scalar
  | List items -> List (List.map canonicalize items)
  | Assoc fields ->
      let fields = List.map (fun (k, v) -> k, canonicalize v) fields in
      Assoc (List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) fields)

let equal_canonical a b = equal (canonicalize a) (canonicalize b)

let rec compare a b =
  let rank = function
    | Null -> 0
    | Bool _ -> 1
    | Int _ -> 2
    | Float _ -> 3
    | String _ -> 4
    | List _ -> 5
    | Assoc _ -> 6
  in
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | String x, String y -> String.compare x y
  | List xs, List ys -> compare_lists xs ys
  | Assoc xs, Assoc ys ->
      compare_lists
        (List.concat_map (fun (k, v) -> [ String k; v ]) xs)
        (List.concat_map (fun (k, v) -> [ String k; v ]) ys)
  | _ -> Int.compare (rank a) (rank b)

and compare_lists xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c <> 0 then c else compare_lists xs' ys'

(* Serialization.  Floats use %.17g trimmed so that round-tripping
   through the parser is lossless. *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  (* JSON has no nan/inf literals; emit null so the output always
     re-parses (consumers read a missing measurement, not a syntax
     error). *)
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let short = Printf.sprintf "%.12g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let rec write_compact buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write_compact buf item)
        items;
      Buffer.add_char buf ']'
  | Assoc fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          write_compact buf v)
        fields;
      Buffer.add_char buf '}'

let to_compact_string json =
  let buf = Buffer.create 256 in
  write_compact buf json;
  Buffer.contents buf

let rec write_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | String _) as scalar -> write_compact buf scalar
  | List [] -> Buffer.add_string buf "[]"
  | Assoc [] -> Buffer.add_string buf "{}"
  | List items ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          write_pretty buf (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf ']'
  | Assoc fields ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          escape_string buf k;
          Buffer.add_string buf ": ";
          write_pretty buf (indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf '}'

let to_pretty_string json =
  let buf = Buffer.create 256 in
  write_pretty buf 0 json;
  Buffer.contents buf

let pp ppf json = Format.pp_print_string ppf (to_pretty_string json)
let hash json = Digest.to_hex (Digest.string (to_compact_string (canonicalize json)))
let size_bytes json = String.length (to_compact_string json)

let rec depth = function
  | Null | Bool _ | Int _ | Float _ | String _ -> 0
  | List items -> 1 + List.fold_left (fun acc item -> max acc (depth item)) 0 items
  | Assoc fields -> 1 + List.fold_left (fun acc (_, v) -> max acc (depth v)) 0 fields

let rec fold_scalars f acc = function
  | (Null | Bool _ | Int _ | Float _ | String _) as scalar -> f acc scalar
  | List items -> List.fold_left (fold_scalars f) acc items
  | Assoc fields -> List.fold_left (fun acc (_, v) -> fold_scalars f acc v) acc fields
