module Engine = Cm_sim.Engine
module Net = Cm_sim.Net
module Topology = Cm_sim.Topology
module Rng = Cm_sim.Rng
module Tracer = Cm_trace.Tracer
module Propagation = Cm_trace.Propagation

type params = {
  followers : int;
  observers_per_cluster : int;
  msg_overhead : int;
  fanout_stagger : float;
  snapshot_threshold : int;
  dedup : bool;
  batching : bool;
  relay : bool;
  batch_window : float;
  digest_bytes : int;
  entry_overhead : int;
  delivery_log_cap : int;
}

let default_params =
  {
    followers = 4;
    observers_per_cluster = 2;
    msg_overhead = 128;
    fanout_stagger = 0.0;
    snapshot_threshold = 500;
    dedup = true;
    batching = true;
    relay = true;
    batch_window = 0.05;
    digest_bytes = 16;
    entry_overhead = 16;
    delivery_log_cap = 4096;
  }

let legacy_params =
  { default_params with dedup = false; batching = false; relay = false }

(* Seconds: leader-failure detection, and the observer/proxy repair unit. *)
let detect_timeout = 2.0
let catchup_interval = 0.5

type write_rec = {
  zxid : int;
  wpath : string;
  wdata : string;
  wdigest : string;
  created : float;
  (* Trace context of the change this write carries; threaded through
     commit, batching and fan-out so every hop lands in the same trace.
     [wcommitted] remembers the commit time for the batch-wait span. *)
  mutable wctx : Tracer.ctx;
  mutable wcommitted : float;
}

(* Growable array for the commit log; zxid n lives at index n-1. *)
module Log = struct
  type t = { mutable data : write_rec array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let length t = t.len

  let append t entry =
    if t.len = Array.length t.data then begin
      let fresh = Array.make (max 16 (2 * t.len)) entry in
      Array.blit t.data 0 fresh 0 t.len;
      t.data <- fresh
    end;
    t.data.(t.len) <- entry;
    t.len <- t.len + 1

  let get t zxid =
    if zxid < 1 || zxid > t.len then invalid_arg "Log.get: zxid out of range";
    t.data.(zxid - 1)

  let truncate t len = t.len <- min t.len (max 0 len)
end

(* Bounded delivery log: keeps the most recent [cap] entries plus a
   total count, so long simulations don't grow memory per delivery. *)
module Ring = struct
  type 'a t = {
    cap : int;
    mutable buf : 'a array;
    mutable start : int;
    mutable len : int;
    mutable total : int;
  }

  let create cap = { cap = max 1 cap; buf = [||]; start = 0; len = 0; total = 0 }

  let push t x =
    if Array.length t.buf = 0 then t.buf <- Array.make t.cap x;
    if t.len < t.cap then begin
      t.buf.((t.start + t.len) mod t.cap) <- x;
      t.len <- t.len + 1
    end
    else begin
      t.buf.(t.start) <- x;
      t.start <- (t.start + 1) mod t.cap
    end;
    t.total <- t.total + 1

  let to_list t = List.init t.len (fun i -> t.buf.((t.start + i) mod t.cap))
  let total t = t.total
end

(* A fan-out unit: the commits of one batch window, coalesced to the
   latest write per path.  [blo..bhi] is the contiguous zxid range the
   batch covers (coalesced-away zxids are superseded by a later entry
   for the same path inside the same range).  [bpayload = false] means
   the receiver is expected to already hold matching bytes and only the
   digest travels. *)
type bentry = { bw : write_rec; bpayload : bool }
type batch = { blo : int; bhi : int; bentries : bentry list }

type stats = {
  leader_batches : int;
  leader_msgs : int;
  leader_bytes : int;
  relay_msgs : int;
  notify_msgs : int;
  notify_entries : int;
  fetches : int;
  fetches_skipped : int;
  payloads_deduped : int;
  writes_coalesced : int;
  snapshots : int;
  replays : int;
}

type counters = {
  mutable c_leader_batches : int;
  mutable c_leader_msgs : int;
  mutable c_leader_bytes : int;
  mutable c_relay_msgs : int;
  mutable c_notify_msgs : int;
  mutable c_notify_entries : int;
  mutable c_fetches : int;
  mutable c_fetches_skipped : int;
  mutable c_payloads_deduped : int;
  mutable c_writes_coalesced : int;
  mutable c_snapshots : int;
  mutable c_replays : int;
}

(* [mlog]: the zxid the member has persisted through.  [macked]: the
   zxid the leader has seen it ack through (the leader's own is its
   log's length). *)
type member = { mnode : Topology.node_id; mutable mlog : int; mutable macked : int }

type write = { path : string; data : string; digest : string option; ctx : Tracer.ctx }

(* Proxy cache entry: bytes plus the content digest they hash to, so a
   digest-bearing notification can be acked without a fetch. *)
type centry = { czxid : int; cdata : string; cdigest : string }

type observer = {
  onode : Topology.node_id;
  oregion : int;
  ocluster : int;
  odata : (string, write_rec) Hashtbl.t;
  mutable olast : int;
  mutable opending : batch list;  (* out-of-order batches awaiting a gap repair *)
  mutable ocatchup_inflight : bool;
  owatchers : (string, proxy list ref) Hashtbl.t;
  onotify : (Topology.node_id, proxy * write_rec list ref) Hashtbl.t;
  mutable onotify_scheduled : bool;
}

and proxy = {
  pnode : Topology.node_id;
  pservice : t;
  mutable pobserver : observer;
  pmem : (string, centry) Hashtbl.t;   (* in-memory cache *)
  pdisk : (string, centry) Hashtbl.t;  (* on-disk cache: survives proxy crash *)
  psubs : (string, (zxid:int -> string -> unit) list ref) Hashtbl.t;
      (* callbacks stored newest-first; reversed at fire time *)
  mutable pup : bool;
  pdelivered : (string * int) Ring.t;
  mutable pweight : int;
      (* cohort weight: how many statistically identical servers this
         proxy stands for; 1 for an ordinary per-server proxy *)
  mutable pdeliv_w : int; (* effective deliveries x weight at the time *)
}

and t = {
  net : Net.t;
  prm : params;
  members : member array;
  mutable leader : int;  (* index into members *)
  log : Log.t;
  mutable committed : int;
  observers : observer array;
  obs_by_region : observer array array;
  proxies : (Topology.node_id, proxy) Hashtbl.t;
  rng : Rng.t;
  write_queue : write Queue.t;  (* buffered while leader down *)
  mutable election_pending : bool;
  latest : (string, write_rec) Hashtbl.t;  (* committed latest-write-per-path index *)
  mutable pending : write_rec list;        (* current batch window, newest first *)
  mutable batch_scheduled : bool;
  last_fanout_digest : (string, string) Hashtbl.t;
  racked : (int, int) Hashtbl.t;  (* region -> highest relay-acked batch bhi *)
  cnt : counters;
  mutable prop : Propagation.t option;
}

let engine t = Net.engine t.net
let topo t = Net.topology t.net
let tracer t = Net.tracer t.net
let set_propagation t p = t.prop <- Some p
let propagation t = t.prop

let note_arrival t ?(kind = "proxy") ~node w =
  match t.prop with
  | None -> ()
  | Some p ->
      Propagation.record_arrival p ~kind ~digest:w.wdigest ~path:w.wpath ~node
        ~zxid:w.zxid ()

(* Contexts of the traced changes a wire message carries; [] in
   untraced runs (every wctx is [Tracer.none] when no tracer ever
   handed out a context). *)
let entry_ctxs bentries =
  List.filter_map
    (fun e -> if Tracer.is_traced e.bw.wctx then Some e.bw.wctx else None)
    bentries

let write_ctxs ws =
  List.filter_map (fun w -> if Tracer.is_traced w.wctx then Some w.wctx else None) ws

(* A high fan-out is serialized at the sender ([fanout_stagger]); the
   wait between enqueue and the actual send is real propagation time,
   so record it — otherwise the per-hop sums come up short of the
   measured end-to-end latency. *)
let record_stagger t ~src ~dst ~t0 bentries =
  match tracer t with
  | None -> ()
  | Some tr ->
      let now = Engine.now (engine t) in
      if now > t0 +. 1e-12 then
        List.iter
          (fun e ->
            if Tracer.is_traced e.bw.wctx then
              ignore (Tracer.span tr e.bw.wctx ~name:"zeus.stagger" ~src ~dst ~t0 ~t1:now ()))
          bentries
let leader_member t = t.members.(t.leader)
let leader_node t = (leader_member t).mnode
let quorum t = (Array.length t.members / 2) + 1

let stats t =
  {
    leader_batches = t.cnt.c_leader_batches;
    leader_msgs = t.cnt.c_leader_msgs;
    leader_bytes = t.cnt.c_leader_bytes;
    relay_msgs = t.cnt.c_relay_msgs;
    notify_msgs = t.cnt.c_notify_msgs;
    notify_entries = t.cnt.c_notify_entries;
    fetches = t.cnt.c_fetches;
    fetches_skipped = t.cnt.c_fetches_skipped;
    payloads_deduped = t.cnt.c_payloads_deduped;
    writes_coalesced = t.cnt.c_writes_coalesced;
    snapshots = t.cnt.c_snapshots;
    replays = t.cnt.c_replays;
  }

(* --- placement ----------------------------------------------------- *)

let init ?(params = default_params) net =
  let topology = Net.topology net in
  let regions = Topology.region_count topology in
  let per_cluster = Array.length (Topology.nodes_in_cluster topology ~region:0 ~cluster:0) in
  let member_count = params.followers + 1 in
  let members =
    Array.init member_count (fun i ->
        let region = i mod regions in
        let slot = i / regions in
        let nodes = Topology.nodes_in_cluster topology ~region ~cluster:0 in
        (* Members occupy the tail of cluster 0 so they do not collide
           with observers, which occupy the head of every cluster. *)
        let idx = per_cluster - 1 - slot in
        if idx < params.observers_per_cluster then
          invalid_arg "Zeus: cluster too small for members + observers";
        { mnode = nodes.(idx).Topology.id; mlog = 0; macked = 0 })
  in
  let observers = ref [] in
  for region = regions - 1 downto 0 do
    let clusters =
      Array.length (Topology.nodes_in_region topology ~region) / per_cluster
    in
    for cluster = clusters - 1 downto 0 do
      let nodes = Topology.nodes_in_cluster topology ~region ~cluster in
      for i = params.observers_per_cluster - 1 downto 0 do
        observers :=
          {
            onode = nodes.(i).Topology.id;
            oregion = region;
            ocluster = cluster;
            odata = Hashtbl.create 64;
            olast = 0;
            opending = [];
            ocatchup_inflight = false;
            owatchers = Hashtbl.create 64;
            onotify = Hashtbl.create 8;
            onotify_scheduled = false;
          }
          :: !observers
      done
    done
  done;
  let observers = Array.of_list !observers in
  let obs_by_region =
    Array.init regions (fun r ->
        Array.of_list
          (Array.to_list observers |> List.filter (fun obs -> obs.oregion = r)))
  in
  {
    net;
    prm = params;
    members;
    leader = 0;
    log = Log.create ();
    committed = 0;
    observers;
    obs_by_region;
    proxies = Hashtbl.create 256;
    rng = Rng.split (Engine.rng (Net.engine net));
    write_queue = Queue.create ();
    election_pending = false;
    latest = Hashtbl.create 256;
    prop = None;
    pending = [];
    batch_scheduled = false;
    last_fanout_digest = Hashtbl.create 256;
    racked = Hashtbl.create 8;
    cnt =
      {
        c_leader_batches = 0;
        c_leader_msgs = 0;
        c_leader_bytes = 0;
        c_relay_msgs = 0;
        c_notify_msgs = 0;
        c_notify_entries = 0;
        c_fetches = 0;
        c_fetches_skipped = 0;
        c_payloads_deduped = 0;
        c_writes_coalesced = 0;
        c_snapshots = 0;
        c_replays = 0;
      };
  }

(* --- wire sizes ------------------------------------------------------ *)

let entry_bytes t e =
  t.prm.entry_overhead + t.prm.digest_bytes
  + if e.bpayload then String.length e.bw.wdata else 0

let batch_bytes t batch =
  List.fold_left (fun acc e -> acc + entry_bytes t e) t.prm.msg_overhead batch.bentries

(* --- observer / proxy hot path --------------------------------------- *)

let rec observer_apply_batch t obs batch =
  let ok = ref true in
  List.iter
    (fun e ->
      if !ok then begin
        let w = e.bw in
        if w.zxid > obs.olast then begin
          let prev = Hashtbl.find_opt obs.odata w.wpath in
          let same_bytes =
            match prev with Some p -> p.wdigest = w.wdigest | None -> false
          in
          if (not e.bpayload) && not same_bytes then begin
            (* A digest-only record we cannot materialize (only possible
               after failover weirdness): stop and repair from the log. *)
            ok := false;
            obs.olast <- w.zxid - 1;
            observer_request_catchup t obs
          end
          else begin
            Hashtbl.replace obs.odata w.wpath w;
            obs.olast <- w.zxid;
            (* Notifications always flow (they are digest-sized); a
               proxy holding matching bytes acks without fetching. *)
            queue_notification t obs w
          end
        end
      end)
    batch.bentries;
  if !ok then obs.olast <- max obs.olast batch.bhi

and drain_pending t obs =
  obs.opending <- List.filter (fun b -> b.bhi > obs.olast) obs.opending;
  match List.find_opt (fun b -> b.blo <= obs.olast + 1) obs.opending with
  | Some b ->
      obs.opending <- List.filter (fun b' -> b' != b) obs.opending;
      observer_apply_batch t obs b;
      drain_pending t obs
  | None -> ()

and observer_receive_batch t obs batch =
  if batch.bhi <= obs.olast then () (* duplicate *)
  else if batch.blo <= obs.olast + 1 then begin
    observer_apply_batch t obs batch;
    drain_pending t obs
  end
  else begin
    obs.opending <- batch :: obs.opending;
    observer_request_catchup t obs
  end

(* Observer -> proxy notifications are buffered per proxy and flushed
   once the current application cascade finishes, so one batch (or one
   catch-up) reaches each proxy as a single message. *)
and queue_notification t obs w =
  match Hashtbl.find_opt obs.owatchers w.wpath with
  | None -> ()
  | Some watchers ->
      List.iter
        (fun proxy ->
          if proxy.pup then begin
            (match Hashtbl.find_opt obs.onotify proxy.pnode with
            | Some (_, entries) -> entries := w :: !entries
            | None -> Hashtbl.replace obs.onotify proxy.pnode (proxy, ref [ w ]));
            if not obs.onotify_scheduled then begin
              obs.onotify_scheduled <- true;
              ignore
                (Engine.schedule (engine t) ~delay:0.0 (fun () ->
                     flush_notifications t obs))
            end
          end)
        !watchers

and flush_notifications t obs =
  obs.onotify_scheduled <- false;
  let buffered = Hashtbl.fold (fun _ pending acc -> pending :: acc) obs.onotify [] in
  Hashtbl.reset obs.onotify;
  if Topology.is_up (topo t) obs.onode then
    List.iter
      (fun (proxy, entries) ->
        let entries = List.rev !entries in
        if t.prm.batching then begin
          let bytes =
            t.prm.msg_overhead
            + (List.length entries * (t.prm.entry_overhead + t.prm.digest_bytes))
          in
          t.cnt.c_notify_msgs <- t.cnt.c_notify_msgs + proxy.pweight;
          t.cnt.c_notify_entries <-
            t.cnt.c_notify_entries + (proxy.pweight * List.length entries);
          Net.send ~hop:"zeus.notify" ~ctxs:(write_ctxs entries)
            ~copies:proxy.pweight t.net ~src:obs.onode ~dst:proxy.pnode ~bytes
            (fun () -> proxy_handle_notifications t proxy obs entries)
        end
        else
          (* Unbatched: one notification per (path, watcher), as in the
             pre-index protocol.  With dedup on it still carries the
             digest so the proxy can skip the fetch. *)
          List.iter
            (fun w ->
              let bytes =
                t.prm.msg_overhead + if t.prm.dedup then t.prm.digest_bytes else 0
              in
              t.cnt.c_notify_msgs <- t.cnt.c_notify_msgs + proxy.pweight;
              t.cnt.c_notify_entries <- t.cnt.c_notify_entries + proxy.pweight;
              Net.send ~copies:proxy.pweight t.net ~src:obs.onode
                ~dst:proxy.pnode ~bytes (fun () ->
                  proxy_handle_notifications t proxy obs [ w ]))
            entries)
      buffered

and proxy_handle_notifications t proxy obs entries =
  if proxy.pup then begin
    let need =
      List.filter
        (fun w ->
          match Hashtbl.find_opt proxy.pmem w.wpath with
          | Some c when c.czxid >= w.zxid -> false (* stale duplicate *)
          | Some c when t.prm.dedup && c.cdigest = w.wdigest ->
              (* Matching bytes already cached: ack locally, bump the
                 version — no fetch, no callback. *)
              let c' = { c with czxid = w.zxid } in
              Hashtbl.replace proxy.pmem w.wpath c';
              Hashtbl.replace proxy.pdisk w.wpath c';
              t.cnt.c_fetches_skipped <-
                t.cnt.c_fetches_skipped + proxy.pweight;
              note_arrival t ~node:proxy.pnode w;
              (match tracer t with
              | Some tr ->
                  Tracer.event tr w.wctx ~name:"zeus.cache_ack" ~dst:proxy.pnode
                    ~tags:[ ("dedup", "hit") ] ()
              | None -> ());
              false
          | _ -> true)
        entries
    in
    if need <> [] && Topology.is_up (topo t) proxy.pnode then begin
      (* One fetch round trip for every path that actually needs bytes. *)
      t.cnt.c_fetches <- t.cnt.c_fetches + proxy.pweight;
      let req_bytes =
        t.prm.msg_overhead + (List.length need * t.prm.entry_overhead)
      in
      Net.send ~hop:"zeus.fetch_req" ~ctxs:(write_ctxs need)
        ~copies:proxy.pweight t.net ~src:proxy.pnode ~dst:obs.onode
        ~bytes:req_bytes (fun () ->
          if Topology.is_up (topo t) obs.onode then begin
            let found =
              List.filter_map (fun w -> Hashtbl.find_opt obs.odata w.wpath) need
            in
            let resp_bytes =
              List.fold_left
                (fun acc w -> acc + t.prm.entry_overhead + String.length w.wdata)
                t.prm.msg_overhead found
            in
            Net.send ~hop:"zeus.fetch" ~ctxs:(write_ctxs found)
              ~copies:proxy.pweight t.net ~src:obs.onode ~dst:proxy.pnode
              ~bytes:resp_bytes
              (fun () -> List.iter (fun w -> proxy_deliver proxy w) found)
          end)
    end
  end

and proxy_deliver proxy w =
  if proxy.pup then begin
    let t = proxy.pservice in
    let prev = Hashtbl.find_opt proxy.pmem w.wpath in
    let newer = match prev with Some c -> w.zxid > c.czxid | None -> true in
    if newer then begin
      (* Identical bytes under a newer zxid (a deduped rewrite) are a
         version bump, not an effective change: no callback. *)
      let same_bytes =
        t.prm.dedup
        && (match prev with Some c -> c.cdigest = w.wdigest | None -> false)
      in
      let c = { czxid = w.zxid; cdata = w.wdata; cdigest = w.wdigest } in
      Hashtbl.replace proxy.pmem w.wpath c;
      Hashtbl.replace proxy.pdisk w.wpath c;
      note_arrival t ~node:proxy.pnode w;
      (match tracer t with
      | Some tr ->
          Tracer.event tr w.wctx ~name:"zeus.deliver" ~dst:proxy.pnode
            ~tags:[ ("effective", string_of_bool (not same_bytes)) ]
            ()
      | None -> ());
      if not same_bytes then begin
        Ring.push proxy.pdelivered (w.wpath, w.zxid);
        proxy.pdeliv_w <- proxy.pdeliv_w + proxy.pweight;
        match Hashtbl.find_opt proxy.psubs w.wpath with
        | None -> ()
        | Some callbacks ->
            List.iter (fun f -> f ~zxid:w.zxid w.wdata) (List.rev !callbacks)
      end
    end
  end

(* --- catch-up -------------------------------------------------------- *)

and observer_request_catchup t obs =
  if (not obs.ocatchup_inflight) && Topology.is_up (topo t) obs.onode then begin
    obs.ocatchup_inflight <- true;
    let from_zxid = obs.olast + 1 in
    Net.send t.net ~src:obs.onode ~dst:(leader_node t) ~bytes:t.prm.msg_overhead (fun () ->
        if Topology.is_up (topo t) (leader_node t) then begin
          let upto = t.committed in
          let gap = upto - from_zxid + 1 in
          if gap > t.prm.snapshot_threshold then begin
            (* Snapshot catch-up: the latest committed value per path,
               read straight off the index — no log replay. *)
            t.cnt.c_snapshots <- t.cnt.c_snapshots + 1;
            let snapshot = Hashtbl.fold (fun _ w acc -> w :: acc) t.latest [] in
            let bytes =
              List.fold_left
                (fun acc w ->
                  acc + t.prm.entry_overhead + t.prm.digest_bytes
                  + String.length w.wdata)
                t.prm.msg_overhead snapshot
            in
            Net.send ~hop:"zeus.catchup" ~ctxs:(write_ctxs snapshot) t.net
              ~src:(leader_node t) ~dst:obs.onode ~bytes (fun () ->
                obs.ocatchup_inflight <- false;
                if upto > obs.olast then begin
                  obs.olast <- upto;
                  obs.opending <- List.filter (fun b -> b.bhi > upto) obs.opending;
                  List.iter
                    (fun w ->
                      match Hashtbl.find_opt obs.odata w.wpath with
                      | Some old when old.zxid >= w.zxid -> ()
                      | _ ->
                          Hashtbl.replace obs.odata w.wpath w;
                          queue_notification t obs w)
                    snapshot;
                  drain_pending t obs
                end)
          end
          else begin
            (* Small gap: replay the committed suffix as one batch. *)
            t.cnt.c_replays <- t.cnt.c_replays + 1;
            let entries = ref [] in
            for zxid = upto downto from_zxid do
              entries := { bw = Log.get t.log zxid; bpayload = true } :: !entries
            done;
            let replay = { blo = from_zxid; bhi = upto; bentries = !entries } in
            let bytes = batch_bytes t replay in
            Net.send ~hop:"zeus.catchup" ~ctxs:(entry_ctxs replay.bentries) t.net
              ~src:(leader_node t) ~dst:obs.onode ~bytes (fun () ->
                obs.ocatchup_inflight <- false;
                if upto > obs.olast then observer_receive_batch t obs replay)
          end
        end
        else obs.ocatchup_inflight <- false);
    (* Retry guard: if the reply never arrives (crashes), re-arm. *)
    ignore
      (Engine.schedule (engine t) ~delay:(catchup_interval *. 4.0) (fun () ->
           obs.ocatchup_inflight <- false))
  end

(* --- leader fan-out --------------------------------------------------- *)

let live_observers_in_region t r =
  Array.to_list t.obs_by_region.(r)
  |> List.filter (fun obs -> Topology.is_up (topo t) obs.onode)

let leader_send_batch t ?(stagger_idx = 0) obs batch ~bytes ~on_receipt =
  let t_q = Engine.now (engine t) in
  let push () =
    if Topology.is_up (topo t) obs.onode then begin
      record_stagger t ~src:(leader_node t) ~dst:obs.onode ~t0:t_q batch.bentries;
      t.cnt.c_leader_msgs <- t.cnt.c_leader_msgs + 1;
      t.cnt.c_leader_bytes <- t.cnt.c_leader_bytes + bytes;
      Net.send ~hop:"zeus.fanout" ~ctxs:(entry_ctxs batch.bentries) t.net
        ~src:(leader_node t) ~dst:obs.onode ~bytes (fun () ->
          on_receipt ();
          observer_receive_batch t obs batch)
    end
  in
  if t.prm.fanout_stagger <= 0.0 || stagger_idx = 0 then push ()
  else
    ignore
      (Engine.schedule (engine t)
         ~delay:(t.prm.fanout_stagger *. float_of_int stagger_idx)
         push)

let fanout_direct_region t r batch ~bytes =
  List.iteri
    (fun i obs -> leader_send_batch t ~stagger_idx:i obs batch ~bytes ~on_receipt:ignore)
    (live_observers_in_region t r)

let relay_forward t relay batch ~bytes =
  (* The relay acks the leader, then re-broadcasts within its region. *)
  Net.send t.net ~src:relay.onode ~dst:(leader_node t) ~bytes:t.prm.msg_overhead
    (fun () ->
      let acked =
        match Hashtbl.find_opt t.racked relay.oregion with Some z -> z | None -> 0
      in
      Hashtbl.replace t.racked relay.oregion (max acked batch.bhi));
  let siblings =
    live_observers_in_region t relay.oregion
    |> List.filter (fun obs -> obs != relay)
  in
  let t_q = Engine.now (engine t) in
  List.iteri
    (fun i obs ->
      let forward () =
        if Topology.is_up (topo t) obs.onode then begin
          record_stagger t ~src:relay.onode ~dst:obs.onode ~t0:t_q batch.bentries;
          t.cnt.c_relay_msgs <- t.cnt.c_relay_msgs + 1;
          Net.send ~hop:"zeus.relay" ~ctxs:(entry_ctxs batch.bentries) t.net
            ~src:relay.onode ~dst:obs.onode ~bytes (fun () ->
              observer_receive_batch t obs batch)
        end
      in
      if t.prm.fanout_stagger <= 0.0 || i = 0 then forward ()
      else
        ignore
          (Engine.schedule (engine t) ~delay:(t.prm.fanout_stagger *. float_of_int i)
             forward))
    siblings

let fanout_batch t batch =
  let bytes = batch_bytes t batch in
  if t.prm.relay then
    Array.iteri
      (fun r _ ->
        match live_observers_in_region t r with
        | [] -> () (* whole region dark; restarts repair via catch-up *)
        | relay :: _ ->
            leader_send_batch t ~stagger_idx:r relay batch ~bytes
              ~on_receipt:(fun () -> relay_forward t relay batch ~bytes);
            (* Fallback: if the relay never acks (crashed in flight),
               re-send straight to every observer of the region.
               Resends are idempotent: stale batches are ignored. *)
            ignore
              (Engine.schedule (engine t) ~delay:detect_timeout (fun () ->
                   let acked =
                     match Hashtbl.find_opt t.racked r with Some z -> z | None -> 0
                   in
                   if acked < batch.bhi && Topology.is_up (topo t) (leader_node t)
                   then fanout_direct_region t r batch ~bytes)))
      t.obs_by_region
  else
    Array.iteri
      (fun i obs -> leader_send_batch t ~stagger_idx:i obs batch ~bytes ~on_receipt:ignore)
      t.observers

(* Dedup decision: identical bytes to the last value fanned out for
   this path travel as a digest-only record. *)
let encode_entry t w =
  (match tracer t with
  | Some tr when Tracer.is_traced w.wctx ->
      w.wctx <-
        Tracer.span tr w.wctx ~name:"zeus.batch_wait"
          ~src:(leader_node t) ~dst:(leader_node t)
          ~t0:w.wcommitted ~t1:(Engine.now (engine t)) ()
  | _ -> ());
  let dup =
    t.prm.dedup
    && (match Hashtbl.find_opt t.last_fanout_digest w.wpath with
       | Some d -> d = w.wdigest
       | None -> false)
  in
  Hashtbl.replace t.last_fanout_digest w.wpath w.wdigest;
  if dup then t.cnt.c_payloads_deduped <- t.cnt.c_payloads_deduped + 1;
  { bw = w; bpayload = not dup }

let flush_pending t =
  t.batch_scheduled <- false;
  let writes = List.rev t.pending in
  t.pending <- [];
  match writes with
  | [] -> ()
  | first :: _ ->
      let blo = first.zxid in
      let bhi = List.fold_left (fun acc w -> max acc w.zxid) blo writes in
      (* Coalesce: keep only the last write per path inside the window. *)
      let last_for = Hashtbl.create 16 in
      List.iter (fun w -> Hashtbl.replace last_for w.wpath w.zxid) writes;
      let kept = List.filter (fun w -> Hashtbl.find last_for w.wpath = w.zxid) writes in
      t.cnt.c_writes_coalesced <-
        t.cnt.c_writes_coalesced + (List.length writes - List.length kept);
      t.cnt.c_leader_batches <- t.cnt.c_leader_batches + 1;
      fanout_batch t { blo; bhi; bentries = List.map (encode_entry t) kept }

let enqueue_fanout t w =
  if t.prm.batching then begin
    t.pending <- w :: t.pending;
    if not t.batch_scheduled then begin
      t.batch_scheduled <- true;
      ignore
        (Engine.schedule (engine t) ~delay:t.prm.batch_window (fun () ->
             flush_pending t))
    end
  end
  else begin
    t.cnt.c_leader_batches <- t.cnt.c_leader_batches + 1;
    fanout_batch t { blo = w.zxid; bhi = w.zxid; bentries = [ encode_entry t w ] }
  end

(* --- leader commit path ----------------------------------------------- *)

(* The highest zxid a quorum of members, the leader included, has
   acked through. *)
let quorum_acked t =
  let marks = Array.map (fun m -> m.macked) t.members in
  Array.sort (fun a b -> Int.compare b a) marks;
  marks.(quorum t - 1)

let advance_commit t =
  let upto = min (quorum_acked t) (Log.length t.log) in
  while t.committed < upto do
    let next = t.committed + 1 in
    t.committed <- next;
    let w = Log.get t.log next in
    Hashtbl.replace t.latest w.wpath w;
    let now = Engine.now (engine t) in
    w.wcommitted <- now;
    (match t.prop with
    | Some p -> Propagation.note_commit p ~path:w.wpath ~zxid:w.zxid ~digest:w.wdigest
    | None -> ());
    (match tracer t with
    | Some tr when Tracer.is_traced w.wctx ->
        w.wctx <-
          Tracer.span tr w.wctx ~name:"zeus.commit" ~src:(leader_node t)
            ~dst:(leader_node t)
            ~tags:[ ("zxid", string_of_int w.zxid) ]
            ~t0:w.created ~t1:now ()
    | _ -> ());
    enqueue_fanout t w
  done

(* One proposal per live follower carries zxids [lo..hi]: the first
   entry's framing is part of [msg_overhead], each further one costs
   [entry_overhead].  The proposal implicitly carries the follower's
   missing prefix, so persistence is monotone in zxid and one ack
   covers every zxid through [hi]. *)
let propose t ~lo ~hi =
  let bytes = ref (t.prm.msg_overhead - t.prm.entry_overhead) in
  for zxid = lo to hi do
    bytes := !bytes + t.prm.entry_overhead + String.length (Log.get t.log zxid).wdata
  done;
  Array.iteri
    (fun i member ->
      if i <> t.leader && Topology.is_up (topo t) member.mnode then
        Net.send t.net ~src:(leader_node t) ~dst:member.mnode ~bytes:!bytes (fun () ->
            member.mlog <- max member.mlog hi;
            Net.send t.net ~src:member.mnode ~dst:(leader_node t) ~bytes:t.prm.msg_overhead
              (fun () ->
                if Topology.is_up (topo t) (leader_node t) then begin
                  member.macked <- max member.macked hi;
                  advance_commit t
                end)))
    t.members

let digest_of_data data = Digest.to_hex (Digest.string data)

(* The leader appends the writes under consecutive zxids and proposes
   them together: they commit all or none. *)
let append t writes =
  if writes <> [] then begin
    let now = Engine.now (engine t) in
    let lo = Log.length t.log + 1 in
    List.iter
      (fun { path; data; digest; ctx } ->
        Log.append t.log
          {
            zxid = Log.length t.log + 1;
            wpath = path;
            wdata = data;
            wdigest = (match digest with Some d -> d | None -> digest_of_data data);
            created = now;
            wctx = ctx;
            wcommitted = now;
          })
      writes;
    let hi = Log.length t.log in
    let leader = leader_member t in
    leader.mlog <- hi;
    leader.macked <- hi;
    propose t ~lo ~hi
  end

let write_all t writes =
  if Topology.is_up (topo t) (leader_node t) then append t writes
  else List.iter (fun w -> Queue.add w t.write_queue) writes

let write ?digest ?(ctx = Tracer.none) t ~path ~data =
  write_all t [ { path; data; digest; ctx } ]

let last_committed_zxid t = t.committed

let committed_value t path =
  match Hashtbl.find_opt t.latest path with Some w -> Some w.wdata | None -> None

(* --- failover ------------------------------------------------------- *)

let elect t =
  t.election_pending <- false;
  let best = ref None in
  Array.iteri
    (fun i member ->
      if Topology.is_up (topo t) member.mnode then
        match !best with
        | None -> best := Some i
        | Some j -> if member.mlog > t.members.(j).mlog then best := Some i)
    t.members;
  match !best with
  | None -> () (* no quorum possible; cluster stays headless *)
  | Some i ->
      t.leader <- i;
      (* Uncommitted suffix beyond the new leader's log is lost. *)
      assert (t.committed <= t.members.(i).mlog);
      Log.truncate t.log t.members.(i).mlog;
      Array.iter (fun m -> m.macked <- 0) t.members;
      t.members.(i).macked <- Log.length t.log;
      (* Persisted but uncommitted entries go out again as one proposal,
         and the writes buffered while the leader was down as another. *)
      if t.committed < Log.length t.log then
        propose t ~lo:(t.committed + 1) ~hi:(Log.length t.log);
      let queued = List.of_seq (Queue.to_seq t.write_queue) in
      Queue.clear t.write_queue;
      append t queued

let crash_leader t = Topology.crash (topo t) (leader_node t)
let member_nodes t = Array.map (fun m -> m.mnode) t.members

(* --- observer failure injection ------------------------------------ *)

let find_observer t ~region ~cluster i =
  let matching =
    Array.to_list t.observers
    |> List.filter (fun obs -> obs.oregion = region && obs.ocluster = cluster)
  in
  match List.nth_opt matching i with
  | Some obs -> obs
  | None -> invalid_arg "Zeus: no such observer"

let crash_observer t ~region ~cluster i =
  Topology.crash (topo t) (find_observer t ~region ~cluster i).onode

let restart_observer t ~region ~cluster i =
  Topology.restart (topo t) (find_observer t ~region ~cluster i).onode

let observer_on t node = Array.find_opt (fun obs -> obs.onode = node) t.observers
let observer_last_zxid t ~region ~cluster i = (find_observer t ~region ~cluster i).olast

let observer_data t ~region ~cluster i =
  let obs = find_observer t ~region ~cluster i in
  Hashtbl.fold (fun path w acc -> (path, (w.zxid, w.wdata)) :: acc) obs.odata []
  |> List.sort compare

(* --- proxy side ----------------------------------------------------- *)

let pick_observer t node =
  let region, cluster = Topology.cluster_of (topo t) node in
  let local =
    Array.to_list t.observers
    |> List.filter (fun obs ->
           obs.oregion = region && obs.ocluster = cluster
           && Topology.is_up (topo t) obs.onode)
  in
  match local with
  | [] ->
      (* Whole cluster's observers down: fall back to any live one. *)
      let any =
        Array.to_list t.observers
        |> List.filter (fun obs -> Topology.is_up (topo t) obs.onode)
      in
      (match any with
      | [] -> t.observers.(0) (* all down; keep a reference, reads hit disk *)
      | candidates -> List.nth candidates (Rng.int t.rng (List.length candidates)))
  | candidates -> List.nth candidates (Rng.int t.rng (List.length candidates))

let register_watch t proxy path =
  let obs = proxy.pobserver in
  Net.send ~copies:proxy.pweight t.net ~src:proxy.pnode ~dst:obs.onode
    ~bytes:t.prm.msg_overhead (fun () ->
      if Topology.is_up (topo t) obs.onode then begin
        (match Hashtbl.find_opt obs.owatchers path with
        | Some watchers -> if not (List.memq proxy !watchers) then watchers := proxy :: !watchers
        | None -> Hashtbl.replace obs.owatchers path (ref [ proxy ]));
        (* Initial read: push the current value if any. *)
        match Hashtbl.find_opt obs.odata path with
        | Some w ->
            Net.send ~hop:"zeus.initial_push" ~ctxs:(write_ctxs [ w ])
              ~copies:proxy.pweight t.net ~src:obs.onode ~dst:proxy.pnode
              ~bytes:(t.prm.msg_overhead + String.length w.wdata) (fun () ->
                proxy_deliver proxy w)
        | None -> ()
      end)

let attach t proxy =
  proxy.pobserver <- pick_observer t proxy.pnode;
  Hashtbl.iter (fun path _ -> register_watch t proxy path) proxy.psubs

let proxy_on ?(weight = 1) t node =
  match Hashtbl.find_opt t.proxies node with
  | Some proxy -> proxy
  | None ->
      let proxy =
        {
          pnode = node;
          pservice = t;
          pobserver = t.observers.(0);
          pmem = Hashtbl.create 16;
          pdisk = Hashtbl.create 16;
          psubs = Hashtbl.create 16;
          pup = true;
          pdelivered = Ring.create t.prm.delivery_log_cap;
          pweight = weight;
          pdeliv_w = 0;
        }
      in
      attach t proxy;
      Hashtbl.replace t.proxies node proxy;
      proxy

let subscribe proxy ~path callback =
  let t = proxy.pservice in
  (match t.prop with
  | Some p -> Propagation.register_target p ~kind:"proxy" ~path ~node:proxy.pnode ()
  | None -> ());
  (match Hashtbl.find_opt proxy.psubs path with
  | Some callbacks -> callbacks := callback :: !callbacks
  | None ->
      Hashtbl.replace proxy.psubs path (ref [ callback ]);
      register_watch t proxy path);
  (* Replay the cached value immediately if we already have one. *)
  match Hashtbl.find_opt proxy.pmem path with
  | Some c -> callback ~zxid:c.czxid c.cdata
  | None -> ()

let proxy_get proxy path =
  if proxy.pup then
    match Hashtbl.find_opt proxy.pmem path with
    | Some c -> Some c.cdata
    | None -> (
        match Hashtbl.find_opt proxy.pdisk path with
        | Some c -> Some c.cdata
        | None -> None)
  else
    (* Proxy process dead: the application reads the on-disk cache. *)
    match Hashtbl.find_opt proxy.pdisk path with
    | Some c -> Some c.cdata
    | None -> None

let proxy_get_versioned proxy path =
  let cache = if proxy.pup then proxy.pmem else proxy.pdisk in
  match Hashtbl.find_opt cache path with
  | Some c -> Some (c.czxid, c.cdata)
  | None -> (
      match Hashtbl.find_opt proxy.pdisk path with
      | Some c -> Some (c.czxid, c.cdata)
      | None -> None)

let proxy_cached_zxid proxy path =
  match Hashtbl.find_opt proxy.pmem path with
  | Some c -> Some c.czxid
  | None -> None

let crash_proxy proxy =
  proxy.pup <- false;
  Hashtbl.reset proxy.pmem

let restart_proxy proxy =
  proxy.pup <- true;
  (* Warm the memory cache from disk, reconnect, resubscribe. *)
  Hashtbl.iter (fun path entry -> Hashtbl.replace proxy.pmem path entry) proxy.pdisk;
  attach proxy.pservice proxy

let delivery_log proxy = Ring.to_list proxy.pdelivered
let deliveries_total proxy = Ring.total proxy.pdelivered
let deliveries_weighted proxy = proxy.pdeliv_w
let proxy_weight proxy = proxy.pweight

let set_proxy_weight proxy w =
  assert (w >= 0);
  proxy.pweight <- w

(* --- hooks for the pull-model ablation ------------------------------ *)

let net_of t = t.net
let msg_overhead t = t.prm.msg_overhead
let nearest_observer_node t node = (pick_observer t node).onode

let observer_value_at t node path =
  match observer_on t node with
  | None -> None
  | Some obs -> (
      match Hashtbl.find_opt obs.odata path with
      | Some w -> Some (w.zxid, w.wdata)
      | None -> None)

(* --- crash reaction --------------------------------------------------- *)

let failover t =
  Hashtbl.iter
    (fun _ proxy ->
      if proxy.pup && not (Topology.is_up (topo t) proxy.pobserver.onode) then
        attach t proxy)
    t.proxies

(* Zeus's one reaction to a crash or restart, whoever caused it. *)
let on_node_change t node =
  let up = Topology.is_up (topo t) node in
  if node = leader_node t && (not up) && not t.election_pending then begin
    t.election_pending <- true;
    ignore (Engine.schedule (engine t) ~delay:detect_timeout (fun () -> elect t))
  end;
  Option.iter
    (fun obs ->
      if up then observer_request_catchup t obs;
      ignore
        (Engine.schedule (engine t) ~delay:(catchup_interval *. 2.0) (fun () -> failover t)))
    (observer_on t node)

let create ?params net =
  let t = init ?params net in
  Topology.on_change (topo t) (on_node_change t);
  t
