(* Plain-text rendering for the experiment harness: section headers,
   aligned tables, and ascii sparklines for time series. *)

let section id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "[%s] %s\n" id title;
  Printf.printf "================================================================\n"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n" s) fmt

let kv key value = Printf.printf "  %-46s %s\n" key value

let table ~header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc row -> max acc (List.length row)) 0 all in
  let width col =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row col with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let print_row row =
    Printf.printf "  ";
    List.iteri
      (fun col w ->
        let cell = match List.nth_opt row col with Some c -> c | None -> "" in
        if col = 0 then Printf.printf "%-*s  " w cell else Printf.printf "%*s  " w cell)
      widths;
    print_newline ()
  in
  print_row header;
  Printf.printf "  %s\n" (String.make (List.fold_left ( + ) (2 * ncols) widths) '-');
  List.iter print_row rows

let pct v = Printf.sprintf "%.1f%%" v
let pctf v = Printf.sprintf "%.1f%%" (100.0 *. v)
let secs v = Printf.sprintf "%.1fs" v
let f1 v = Printf.sprintf "%.1f" v

let bytes v =
  if v >= 1 lsl 30 then Printf.sprintf "%.1fGB" (float_of_int v /. 1073741824.0)
  else if v >= 1 lsl 20 then Printf.sprintf "%.1fMB" (float_of_int v /. 1048576.0)
  else if v >= 1024 then Printf.sprintf "%.1fKB" (float_of_int v /. 1024.0)
  else Printf.sprintf "%dB" v

(* Ascii sparkline over a series of (x, y). *)
let spark values =
  let glyphs = [| " "; "."; ":"; "-"; "="; "+"; "*"; "#" |] in
  let lo, hi =
    Array.fold_left
      (fun (lo, hi) v -> Float.min lo v, Float.max hi v)
      (infinity, neg_infinity) values
  in
  if Array.length values = 0 || hi <= lo then String.make (Array.length values) '#'
  else
    String.concat ""
      (Array.to_list
         (Array.map
            (fun v ->
              let idx =
                int_of_float ((v -. lo) /. (hi -. lo) *. float_of_int (Array.length glyphs - 1))
              in
              glyphs.(max 0 (min (Array.length glyphs - 1) idx)))
            values))

(* Reduced-scale run: [bench/main.exe --quick] shrinks every gated
   experiment's workload (bench/run.sh --quick, the CI smoke run). *)
let quick = Array.mem "--quick" Sys.argv

(* Gates.  A gated experiment lists each of its pass/fail conditions
   once, as data, and hands the list to [write_json], which records it
   in the artifact and fails the run on it.  A gate that does not
   apply on this host (e.g. a scaling floor on fewer cores than it
   needs) is recorded with its verdict but cannot fail the run. *)
type op = Le | Lt | Ge | Gt | Eq

type check =
  | Cmp of float * op * float  (** measured, op, bound *)
  | Holds of bool  (** an invariant *)

type gate = { name : string; check : check; applies : bool }

let gate ?(applies = true) name measured op bound =
  { name; check = Cmp (measured, op, bound); applies }

let holds name ok = { name; check = Holds ok; applies = true }

let op_symbol = function Le -> "<=" | Lt -> "<" | Ge -> ">=" | Gt -> ">" | Eq -> "=="

(* A non-finite measurement (nan from an empty sample, a zero
   denominator) fails whatever its bound. *)
let passed g =
  match g.check with
  | Holds ok -> ok
  | Cmp (m, op, b) ->
      Float.is_finite m
      && (match op with Le -> m <= b | Lt -> m < b | Ge -> m >= b | Gt -> m > b | Eq -> m = b)

let json_of_gate g =
  let measured, op, bound =
    Cm_json.Value.(
      match g.check with
      | Cmp (m, op, b) -> Float m, op_symbol op, Float b
      | Holds ok -> Bool ok, "holds", Bool true)
  in
  Cm_json.Value.(
    Assoc
      [
        "name", String g.name;
        "measured", measured;
        "op", String op;
        "bound", bound;
        "applies", Bool g.applies;
        "passed", Bool (passed g);
      ])

let describe g =
  match g.check with
  | Cmp (m, op, b) -> Printf.sprintf "%s = %.6g (bound %s %.6g)" g.name m (op_symbol op) b
  | Holds ok -> Printf.sprintf "%s = %b" g.name ok

(* Write a BENCH_*.json artifact, first checking that the serialized
   text re-parses with our own parser — a malformed emitter fails the
   bench run instead of producing a file downstream tooling chokes on.
   Every BENCH file opens with one "host" block (cores, OCaml version,
   quick or full run) so each number names the host that measured it.
   Every BENCH file is gated: [gates] are appended to [doc] as a
   "gates" array, printed, and then enforced: the file is written
   first so a failing number is on disk, and the run fails with one
   message naming every applicable gate that did not pass. *)
let write_json ~gates ~file doc =
  let doc =
    Cm_json.Value.(
      match doc with
      | Assoc fields ->
          let host =
            Assoc
              [
                "cores", Int (Domain.recommended_domain_count ());
                "ocaml", String Sys.ocaml_version;
                "quick", Bool quick;
              ]
          in
          Assoc ((("host", host) :: fields) @ [ "gates", List (List.map json_of_gate gates) ])
      | _ -> invalid_arg "Render.write_json: gates need an object document")
  in
  let text = Cm_json.Value.to_pretty_string doc ^ "\n" in
  (match Cm_json.Parser.parse text with
  | Ok _ -> ()
  | Error e ->
      failwith
        (Printf.sprintf "render: %s does not round-trip: %s" file
           (Format.asprintf "%a" Cm_json.Parser.pp_error e)));
  let oc = open_out file in
  output_string oc text;
  close_out oc;
  table ~header:[ "gate"; "verdict" ]
    (List.map
       (fun g ->
         [
           describe g;
           (match g.applies, passed g with
           | true, true -> "ok"
           | true, false -> "FAILED"
           | false, _ -> "not applied");
         ])
       gates);
  match List.filter (fun g -> g.applies && not (passed g)) gates with
  | [] -> ()
  | failed ->
      failwith
        (Printf.sprintf "%s: failed gates: %s" file
           (String.concat "; " (List.map describe failed)))

let series ~label ~unit values =
  let lo, hi =
    Array.fold_left
      (fun (lo, hi) v -> Float.min lo v, Float.max hi v)
      (infinity, neg_infinity) values
  in
  Printf.printf "  %-24s |%s|  min %.1f%s max %.1f%s\n" label (spark values) lo unit hi unit
