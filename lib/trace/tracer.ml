(* Span tracer.  See tracer.mli for the model.  Recording is append-
   only (a reversed list) so instrumented hot paths pay one cons; all
   aggregation happens at query time. *)

type ctx = { tid : int; parent : int }

let none = { tid = 0; parent = 0 }
let is_traced c = c.tid <> 0
let trace_id c = c.tid

type span = {
  strace : int;
  sid : int;
  sparent : int;
  sname : string;
  ssrc : int;
  sdst : int;
  sbytes : int;
  st0 : float;
  st1 : float;
  stags : (string * string) list;
}

type t = {
  now : unit -> float;
  mutable on : bool;
  mutable next_trace : int;
  mutable next_span : int;
  mutable rev_spans : span list;
  mutable nspans : int;
  roots : (int, string * float) Hashtbl.t; (* trace id -> name, start *)
}

let create ?(enabled = true) ~now () =
  {
    now;
    on = enabled;
    next_trace = 1;
    next_span = 1;
    rev_spans = [];
    nspans = 0;
    roots = Hashtbl.create 16;
  }

let enabled t = t.on

let new_trace t ~name =
  if not t.on then none
  else begin
    let tid = t.next_trace in
    t.next_trace <- tid + 1;
    Hashtbl.replace t.roots tid (name, t.now ());
    { tid; parent = 0 }
  end

let span t ctx ~name ?(src = -1) ?(dst = -1) ?(bytes = 0) ?(tags = []) ~t0 ~t1 () =
  if not (t.on && is_traced ctx) then none
  else begin
    let sid = t.next_span in
    t.next_span <- sid + 1;
    t.rev_spans <-
      {
        strace = ctx.tid;
        sid;
        sparent = ctx.parent;
        sname = name;
        ssrc = src;
        sdst = dst;
        sbytes = bytes;
        st0 = t0;
        st1 = t1;
        stags = tags;
      }
      :: t.rev_spans;
    t.nspans <- t.nspans + 1;
    { tid = ctx.tid; parent = sid }
  end

let event t ctx ~name ?src ?dst ?tags () =
  if t.on && is_traced ctx then begin
    let now = t.now () in
    ignore (span t ctx ~name ?src ?dst ?tags ~t0:now ~t1:now ())
  end

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)

let span_count t = t.nspans
let trace_count t = Hashtbl.length t.roots
let spans t = List.rev t.rev_spans

let trace_ids t =
  Hashtbl.fold (fun tid _ acc -> tid :: acc) t.roots [] |> List.sort compare

let trace_name t tid =
  Option.map fst (Hashtbl.find_opt t.roots tid)

let spans_of t tid =
  List.filter (fun s -> s.strace = tid) t.rev_spans
  |> List.sort (fun a b ->
         match compare a.st0 b.st0 with 0 -> compare a.sid b.sid | c -> c)

let trace_span t tid =
  match Hashtbl.find_opt t.roots tid with
  | None -> 0.
  | Some (_, start) ->
      List.fold_left
        (fun acc s -> if s.strace = tid then Float.max acc (s.st1 -. start) else acc)
        0. t.rev_spans

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

type hop_stat = {
  hop : string;
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  max_s : float;
  total_bytes : int;
}

let hop_stats ?hops t =
  (* Group durations by hop name, remembering first-occurrence order. *)
  let tbl : (string, float list ref * int ref * int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun s ->
      let durs, bytes =
        match Hashtbl.find_opt tbl s.sname with
        | Some (d, b, _) -> (d, b)
        | None ->
            let d = ref [] and b = ref 0 in
            Hashtbl.replace tbl s.sname (d, b, List.length !order);
            order := s.sname :: !order;
            (d, b)
      in
      durs := (s.st1 -. s.st0) :: !durs;
      bytes := !bytes + s.sbytes)
    (spans t);
  let names =
    match hops with
    | Some names -> List.filter (Hashtbl.mem tbl) names
    | None -> List.rev !order
  in
  List.map
    (fun name ->
      let durs, bytes, _ = Hashtbl.find tbl name in
      let arr = Array.of_list !durs in
      Array.sort compare arr;
      {
        hop = name;
        count = Array.length arr;
        p50 = percentile arr 0.50;
        p90 = percentile arr 0.90;
        p99 = percentile arr 0.99;
        max_s = (if Array.length arr = 0 then Float.nan else arr.(Array.length arr - 1));
        total_bytes = !bytes;
      })
    names

let critical_path t tid =
  match spans_of t tid with
  | [] -> []
  | ss ->
      let last =
        List.fold_left (fun acc s -> if s.st1 > acc.st1 then s else acc)
          (List.hd ss) ss
      in
      let eps = 1e-9 in
      (* Walk backwards: predecessor = latest-finishing span that ended
         by (or at) our start.  Prefer a span whose destination is our
         source when several tie, so the path follows the wire.  Spans
         already on the path are excluded — two zero-duration spans at
         the same instant would otherwise alternate forever. *)
      let visited = Hashtbl.create 16 in
      let rec walk cur acc =
        Hashtbl.replace visited cur.sid ();
        let cands =
          List.filter
            (fun s -> (not (Hashtbl.mem visited s.sid)) && s.st1 <= cur.st0 +. eps)
            ss
        in
        match cands with
        | [] -> cur :: acc
        | _ ->
            let best =
              List.fold_left
                (fun acc s ->
                  let better =
                    s.st1 > acc.st1 +. eps
                    || (Float.abs (s.st1 -. acc.st1) <= eps
                        && cur.ssrc >= 0 && s.sdst = cur.ssrc && acc.sdst <> cur.ssrc)
                  in
                  if better then s else acc)
                (List.hd cands) cands
            in
            walk best (cur :: acc)
      in
      walk last []

let fmt_ms v = Printf.sprintf "%8.1fms" (v *. 1000.)

let node_str s =
  if s.ssrc < 0 && s.sdst < 0 then ""
  else if s.ssrc < 0 then Printf.sprintf "  ->n%d" s.sdst
  else if s.sdst < 0 then Printf.sprintf "  n%d->" s.ssrc
  else Printf.sprintf "  n%d->n%d" s.ssrc s.sdst

let tag_str s =
  if s.stags = [] then ""
  else
    "  {"
    ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) s.stags)
    ^ "}"

let waterfall ?(max_spans = 48) t tid =
  match Hashtbl.find_opt t.roots tid with
  | None -> Printf.sprintf "trace #%d: unknown\n" tid
  | Some (name, start) ->
      let ss = spans_of t tid in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf "trace #%d  %s  (start %.3fs, %d spans, end-to-end %.1fms)\n"
           tid name start (List.length ss) (trace_span t tid *. 1000.));
      let shown = ref 0 in
      List.iter
        (fun s ->
          if !shown < max_spans then begin
            incr shown;
            Buffer.add_string buf
              (Printf.sprintf "  [+%s %s]  %-22s%s%s%s\n"
                 (fmt_ms (s.st0 -. start))
                 (fmt_ms (s.st1 -. s.st0))
                 s.sname
                 (node_str s)
                 (if s.sbytes > 0 then Printf.sprintf "  %dB" s.sbytes else "")
                 (tag_str s))
          end)
        ss;
      let rest = List.length ss - !shown in
      if rest > 0 then
        Buffer.add_string buf (Printf.sprintf "  ... (+%d more spans)\n" rest);
      Buffer.contents buf

let hop_report ?hops t =
  let stats = hop_stats ?hops t in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-22s %7s %10s %10s %10s %10s %12s\n" "hop" "count"
       "p50" "p90" "p99" "max" "bytes");
  List.iter
    (fun h ->
      Buffer.add_string buf
        (Printf.sprintf "%-22s %7d %s %s %s %s %11dB\n" h.hop h.count
           (fmt_ms h.p50) (fmt_ms h.p90) (fmt_ms h.p99) (fmt_ms h.max_s)
           h.total_bytes))
    stats;
  Buffer.contents buf
