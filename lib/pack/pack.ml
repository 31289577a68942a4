type loc = { l_seg : int; l_off : int; l_len : int; l_data : int }

type gen = { g_num : int; g_root : string; g_time : float; g_message : string }

type recovery = {
  segments_scanned : int;
  records_indexed : int;
  duplicates_skipped : int;
  corrupt_skipped : int;
  torn_tail_bytes : int;
  generations_read : int;
  generations_corrupt_skipped : int;
  generation_tail_bytes : int;
}

type gc_stats = {
  gc_live_objects : int;
  gc_swept_objects : int;
  gc_swept_data_bytes : int;
  gc_segments_compacted : int;
  gc_segments_deleted : int;
  gc_file_bytes_before : int;
  gc_file_bytes_after : int;
  gc_generations_dropped : int;
}

type t = {
  pdir : string;
  clock : unit -> float;
  sync_window : float;
  segment_max_bytes : int;
  compact_min_dead_fraction : float;
  mutable segs : Segment.t list;  (* sealed, oldest first *)
  mutable active : Segment.t;
  seg_by_id : (int, Segment.t) Hashtbl.t;
  index : (string, loc) Hashtbl.t;
  mutable live_record_bytes : int;
  mutable live_data_bytes : int;
  gens_path : string;
  mutable gens : gen list;  (* newest first *)
  gens_pending : Buffer.t;
  mutable gen_count : int;
  mutable durable_gen : int;
  mutable batch_start : float option;
  mutable nbatches : int;
  mutable ngc_bytes : int;
  precovery : recovery;
  mutable closed : bool;
}

let manifest_name = "MANIFEST"
let gens_name = "generations.log"
let snapshot_name = "live.idx"

let check_open t = if t.closed then invalid_arg "Pack: store is closed (crashed?)"

(* --- generation-log payload codec ----------------------------------- *)

let encode_gen g =
  Record.encode ~oid:g.g_root
    ~data:(Printf.sprintf "%d\000%.6f\000%s" g.g_num g.g_time g.g_message)

let decode_gen ~root data =
  match String.index_opt data '\000' with
  | None -> None
  | Some i -> (
      match String.index_from_opt data (i + 1) '\000' with
      | None -> None
      | Some j -> (
          match
            ( int_of_string_opt (String.sub data 0 i),
              float_of_string_opt (String.sub data (i + 1) (j - i - 1)) )
          with
          | Some num, Some time ->
              Some
                {
                  g_num = num;
                  g_root = root;
                  g_time = time;
                  g_message = String.sub data (j + 1) (String.length data - j - 1);
                }
          | _ -> None))

(* --- directory helpers ------------------------------------------------ *)

let rec mkdirs d =
  if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdirs (Filename.dirname d);
    (try Sys.mkdir d 0o755 with Sys_error _ -> ())
  end

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let segment_id_of_filename name =
  if
    String.length name = 15
    && String.sub name 0 5 = "pack-"
    && Filename.check_suffix name ".seg"
  then int_of_string_opt (String.sub name 5 6)
  else None

let read_manifest dir =
  let path = Filename.concat dir manifest_name in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let n = in_channel_length ic in
    let text = really_input_string ic n in
    close_in ic;
    let lines = String.split_on_char '\n' text in
    let max_id = ref (-1) and listed = ref [] in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "max"; n ] -> ( match int_of_string_opt n with Some n -> max_id := n | None -> ())
        | [ "seg"; n ] -> (
            match int_of_string_opt n with Some n -> listed := n :: !listed | None -> ())
        | _ -> ())
      lines;
    Some (!max_id, !listed)
  end

let write_manifest t =
  let tmp = Filename.concat t.pdir (manifest_name ^ ".tmp") in
  let max_id =
    List.fold_left (fun acc s -> max acc (Segment.id s)) (Segment.id t.active) t.segs
  in
  let oc = open_out tmp in
  Printf.fprintf oc "max %d\n" max_id;
  List.iter (fun s -> Printf.fprintf oc "seg %d\n" (Segment.id s)) t.segs;
  Printf.fprintf oc "seg %d\n" (Segment.id t.active);
  close_out oc;
  Sys.rename tmp (Filename.concat t.pdir manifest_name);
  fsync_dir t.pdir

(* --- liveness snapshot -------------------------------------------------- *)

(* GC drops dead oids from the index but leaves their records in any
   segment below the compaction threshold — so a reopen's raw scan
   would resurrect them.  The snapshot, rewritten atomically by each
   GC, fences that: it lists the live oids plus a per-segment
   watermark (the synced size at GC time).  A scanned record below
   its segment's watermark and absent from the oid set is GC-dead;
   anything past a watermark (or in a newer segment) postdates the GC
   and is live — which is what lets a swept oid be re-put later. *)

let encode_snapshot ~watermarks ~oids =
  let buf = Buffer.create 4096 in
  Buffer.add_int32_le buf (Int32.of_int (List.length watermarks));
  List.iter
    (fun (id, mark) ->
      Buffer.add_int32_le buf (Int32.of_int id);
      Buffer.add_int32_le buf (Int32.of_int mark))
    watermarks;
  Buffer.add_int32_le buf (Int32.of_int (List.length oids));
  List.iter
    (fun oid ->
      Buffer.add_uint16_le buf (String.length oid);
      Buffer.add_string buf oid)
    oids;
  Record.encode ~oid:"snapshot" ~data:(Buffer.contents buf)

let decode_snapshot data =
  try
    let pos = ref 0 in
    let u32 () =
      let v = Int32.to_int (String.get_int32_le data !pos) in
      pos := !pos + 4;
      v
    in
    let watermarks = Hashtbl.create 16 and live = Hashtbl.create 4096 in
    let nsegs = u32 () in
    for _ = 1 to nsegs do
      let id = u32 () in
      let mark = u32 () in
      Hashtbl.replace watermarks id mark
    done;
    let noids = u32 () in
    for _ = 1 to noids do
      let len = String.get_uint16_le data !pos in
      pos := !pos + 2;
      Hashtbl.replace live (String.sub data !pos len) ();
      pos := !pos + len
    done;
    Some (watermarks, live)
  with Invalid_argument _ -> None

let read_snapshot dir =
  let path = Filename.concat dir snapshot_name in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let image = really_input_string ic n in
    close_in ic;
    let items, _tail = Record.scan image in
    List.fold_left
      (fun acc item ->
        match item with
        | Record.Good { oid = "snapshot"; data; _ } -> (
            match decode_snapshot data with Some s -> Some s | None -> acc)
        | _ -> acc)
      None items
  end

(* --- open / recovery -------------------------------------------------- *)

let create ~dir ?(sync_window = 0.05) ?(segment_max_bytes = 8 * 1024 * 1024)
    ?(compact_min_dead_fraction = 0.25) ?(clock = Unix.gettimeofday)
    ?(domains = 1) () =
  mkdirs dir;
  let existing =
    Array.to_list (Sys.readdir dir)
    |> List.filter_map segment_id_of_filename
    |> List.sort Int.compare
  in
  (* An interrupted GC can leave segments that were compacted away but
     not yet deleted: the manifest names the surviving set at the last
     swap, and anything newer than its max id is post-GC growth. *)
  let valid =
    match read_manifest dir with
    | None -> existing
    | Some (max_id, listed) ->
        List.filter
          (fun id ->
            if id > max_id || List.mem id listed then true
            else begin
              Sys.remove (Filename.concat dir (Printf.sprintf "pack-%06d.seg" id));
              false
            end)
          existing
  in
  let index = Hashtbl.create 4096 in
  let seg_by_id = Hashtbl.create 16 in
  let live_record_bytes = ref 0 and live_data_bytes = ref 0 in
  let records_indexed = ref 0
  and duplicates = ref 0
  and corrupt = ref 0
  and torn = ref 0 in
  let snapshot = read_snapshot dir in
  let gc_dead id off oid =
    match snapshot with
    | None -> false
    | Some (watermarks, live) -> (
        match Hashtbl.find_opt watermarks id with
        | Some mark when off < mark -> not (Hashtbl.mem live oid)
        | Some _ | None -> false)
  in
  (* Recovery is two-phase so it can use multiple domains.  The scan
     phase — load each segment image and walk its record framing, the
     bulk of the work — fans out across the pool: a segment is scanned
     by exactly one worker and segments never share file descriptors.
     The apply phase below stays sequential, in segment order (oldest
     first), because duplicate-skip and GC-dead decisions depend on
     which record the whole pack saw first. *)
  let scan_pool = Cm_parallel.Pool.create ~domains () in
  let scanned =
    Cm_parallel.Pool.map_list scan_pool
      (fun id ->
        let seg = Segment.open_existing ~dir ~id in
        let items, tail = Record.scan (Segment.load_disk seg) in
        id, seg, items, tail)
      valid
  in
  let opened =
    List.map
      (fun (id, seg, items, tail) ->
        List.iter
          (fun item ->
            match item with
            | Record.Good { off; size; oid; data } ->
                if Hashtbl.mem index oid then incr duplicates
                else if gc_dead id off oid then
                  (* swept by a past GC but under the compaction
                     threshold: the record is still on disk (it is in
                     dead_bytes), it just must not resurrect *)
                  ()
                else begin
                  Hashtbl.replace index oid
                    { l_seg = id; l_off = off; l_len = size; l_data = String.length data };
                  live_record_bytes := !live_record_bytes + size;
                  live_data_bytes := !live_data_bytes + String.length data;
                  incr records_indexed
                end
            | Record.Corrupt _ -> incr corrupt)
          items;
        (match tail with
        | Record.Clean -> ()
        | Record.Torn { off; bytes } | Record.Framing_lost { off; bytes } ->
            Segment.truncate seg off;
            torn := !torn + bytes);
        Hashtbl.replace seg_by_id id seg;
        seg)
      scanned
  in
  (* Generation log: same framing, same recovery discipline. *)
  let gens_path = Filename.concat dir gens_name in
  let gens = ref []
  and gens_read = ref 0
  and gens_corrupt = ref 0
  and gens_torn = ref 0
  and gen_count = ref 0 in
  (if Sys.file_exists gens_path then begin
     let ic = open_in_bin gens_path in
     let n = in_channel_length ic in
     let image = really_input_string ic n in
     close_in ic;
     let items, tail = Record.scan image in
     List.iter
       (fun item ->
         match item with
         | Record.Good { oid; data; _ } -> (
             match decode_gen ~root:oid data with
             | Some g ->
                 gens := g :: !gens;
                 gen_count := max !gen_count g.g_num;
                 incr gens_read
             | None -> incr gens_corrupt)
         | Record.Corrupt _ -> incr gens_corrupt)
       items;
     match tail with
     | Record.Clean -> ()
     | Record.Torn { off; bytes } | Record.Framing_lost { off; bytes } ->
         gens_torn := bytes;
         let fd = Unix.openfile gens_path [ Unix.O_WRONLY ] 0o644 in
         Unix.ftruncate fd off;
         Unix.close fd
   end);
  let active, segs =
    match List.rev opened with
    | last :: rest when Segment.file_bytes last < segment_max_bytes ->
        last, List.rev rest
    | all_rev ->
        let id =
          match all_rev with [] -> 0 | last :: _ -> Segment.id last + 1
        in
        let seg = Segment.create ~dir ~id in
        Hashtbl.replace seg_by_id id seg;
        seg, List.rev all_rev
  in
  {
    pdir = dir;
    clock;
    sync_window;
    segment_max_bytes;
    compact_min_dead_fraction;
    segs;
    active;
    seg_by_id;
    index;
    live_record_bytes = !live_record_bytes;
    live_data_bytes = !live_data_bytes;
    gens_path;
    gens = !gens;
    gens_pending = Buffer.create 256;
    gen_count = !gen_count;
    durable_gen = !gen_count;
    batch_start = None;
    nbatches = 0;
    ngc_bytes = 0;
    precovery =
      {
        segments_scanned = List.length valid;
        records_indexed = !records_indexed;
        duplicates_skipped = !duplicates;
        corrupt_skipped = !corrupt;
        torn_tail_bytes = !torn;
        generations_read = !gens_read;
        generations_corrupt_skipped = !gens_corrupt;
        generation_tail_bytes = !gens_torn;
      };
    closed = false;
  }

let dir t = t.pdir
let recovery t = t.precovery

(* --- durability -------------------------------------------------------- *)

let sync t =
  check_open t;
  let dirty = Segment.pending_bytes t.active > 0 || Buffer.length t.gens_pending > 0 in
  (* Object data first, then the pins that reference it: a generation
     record never becomes durable ahead of its objects. *)
  Segment.flush_and_sync t.active;
  if Buffer.length t.gens_pending > 0 then begin
    let contents = Buffer.contents t.gens_pending in
    let fd =
      Unix.openfile t.gens_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    let written = ref 0 in
    while !written < String.length contents do
      written :=
        !written
        + Unix.write_substring fd contents !written (String.length contents - !written)
    done;
    Unix.fsync fd;
    Unix.close fd;
    Buffer.clear t.gens_pending
  end;
  t.durable_gen <- t.gen_count;
  t.batch_start <- None;
  if dirty then t.nbatches <- t.nbatches + 1

let maybe_sync t =
  match t.batch_start with
  | None -> t.batch_start <- Some (t.clock ())
  | Some started -> if t.clock () -. started >= t.sync_window then sync t

let pending_bytes t = Segment.pending_bytes t.active + Buffer.length t.gens_pending
let pending_data_bytes t = Segment.pending_bytes t.active

(* --- objects ----------------------------------------------------------- *)

let mem t oid = Hashtbl.mem t.index oid

let roll_if_needed t size =
  if
    Segment.total_bytes t.active > 0
    && Segment.total_bytes t.active + size > t.segment_max_bytes
  then begin
    Segment.flush_and_sync t.active;
    let id = Segment.id t.active + 1 in
    t.segs <- t.segs @ [ t.active ];
    let seg = Segment.create ~dir:t.pdir ~id in
    Hashtbl.replace t.seg_by_id id seg;
    t.active <- seg
  end

let put t ~oid ~data =
  check_open t;
  if mem t oid then false
  else begin
    let record = Record.encode ~oid ~data in
    roll_if_needed t (String.length record);
    let off = Segment.append t.active record in
    Hashtbl.replace t.index oid
      {
        l_seg = Segment.id t.active;
        l_off = off;
        l_len = String.length record;
        l_data = String.length data;
      };
    t.live_record_bytes <- t.live_record_bytes + String.length record;
    t.live_data_bytes <- t.live_data_bytes + String.length data;
    maybe_sync t;
    true
  end

let find t oid =
  check_open t;
  match Hashtbl.find_opt t.index oid with
  | None -> None
  | Some loc -> (
      match Hashtbl.find_opt t.seg_by_id loc.l_seg with
      | None -> None
      | Some seg -> (
          match Record.decode (Segment.read seg ~off:loc.l_off ~len:loc.l_len) with
          | Some (stored_oid, data) when String.equal stored_oid oid -> Some data
          | Some _ | None -> None))

let oids t =
  check_open t;
  Hashtbl.fold (fun oid _ acc -> oid :: acc) t.index []

(* --- generations ------------------------------------------------------- *)

let land_generation t ~root ~timestamp ~message =
  check_open t;
  let g =
    { g_num = t.gen_count + 1; g_root = root; g_time = timestamp; g_message = message }
  in
  Buffer.add_string t.gens_pending (encode_gen g);
  t.gens <- g :: t.gens;
  t.gen_count <- g.g_num;
  maybe_sync t;
  g.g_num

let generations t = List.rev t.gens
let last_generation t = t.gen_count
let durable_generation t = t.durable_gen

(* --- crash / close ------------------------------------------------------ *)

let crash t ?(surviving_data_bytes = 0) ?(surviving_gen_bytes = 0) () =
  check_open t;
  Segment.crash t.active ~surviving:surviving_data_bytes;
  let gen_pending = Buffer.contents t.gens_pending in
  let surviving_gen = max 0 (min surviving_gen_bytes (String.length gen_pending)) in
  if surviving_gen > 0 then begin
    let fd =
      Unix.openfile t.gens_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
    in
    let written = ref 0 in
    while !written < surviving_gen do
      written := !written + Unix.write_substring fd gen_pending !written (surviving_gen - !written)
    done;
    Unix.close fd
  end;
  Buffer.clear t.gens_pending;
  List.iter Segment.close t.segs;
  t.closed <- true

let close t =
  if not t.closed then begin
    sync t;
    Segment.close t.active;
    List.iter Segment.close t.segs;
    t.closed <- true
  end

(* --- garbage collection ------------------------------------------------- *)

let file_bytes t =
  List.fold_left
    (fun acc s -> acc + Segment.file_bytes s)
    (Segment.total_bytes t.active)
    t.segs

let gc t ~live ~keep_gens =
  check_open t;
  sync t;
  let bytes_before = file_bytes t in
  (* Sweep: drop dead oids from the index, accounting dead bytes per
     segment so compaction can pick its targets. *)
  let dead_by_seg = Hashtbl.create 16 and live_by_seg = Hashtbl.create 16 in
  let bump table key v =
    Hashtbl.replace table key (v + Option.value ~default:0 (Hashtbl.find_opt table key))
  in
  let swept = ref 0 and swept_data = ref 0 in
  let dead = ref [] in
  Hashtbl.iter
    (fun oid loc ->
      if live oid then bump live_by_seg loc.l_seg loc.l_len
      else begin
        dead := oid :: !dead;
        bump dead_by_seg loc.l_seg loc.l_len;
        incr swept;
        swept_data := !swept_data + loc.l_data
      end)
    t.index;
  List.iter
    (fun oid ->
      match Hashtbl.find_opt t.index oid with
      | None -> ()
      | Some loc ->
          t.live_record_bytes <- t.live_record_bytes - loc.l_len;
          t.live_data_bytes <- t.live_data_bytes - loc.l_data;
          Hashtbl.remove t.index oid)
    !dead;
  (* Compact: copy-live-forward, manifest swap, delete.  A segment
     qualifies when its dead fraction (dead records plus recovery
     residue like corrupt or duplicate records) crosses the
     threshold.  The active segment is sealed first so it can be
     compacted like any other. *)
  let candidates = t.segs @ [ t.active ] in
  let should_compact seg =
    let fb = Segment.file_bytes seg in
    if fb = 0 then Segment.id seg <> Segment.id t.active
    else begin
      let live_b = Option.value ~default:0 (Hashtbl.find_opt live_by_seg (Segment.id seg)) in
      let dead_frac = 1.0 -. (float_of_int live_b /. float_of_int fb) in
      dead_frac >= t.compact_min_dead_fraction && live_b < fb
    end
  in
  let to_compact = List.filter should_compact candidates in
  let compacted = List.length to_compact in
  if to_compact <> [] then begin
    (if List.exists (fun s -> Segment.id s = Segment.id t.active) to_compact then begin
       (* Seal the active segment and start a fresh one to receive the
          surviving copies. *)
       Segment.flush_and_sync t.active;
       let id = Segment.id t.active + 1 in
       t.segs <- t.segs @ [ t.active ];
       let seg = Segment.create ~dir:t.pdir ~id in
       Hashtbl.replace t.seg_by_id id seg;
       t.active <- seg
     end);
    let compact_ids = List.map Segment.id to_compact in
    (* Live records per compacted segment, in file order. *)
    let by_seg = Hashtbl.create 16 in
    Hashtbl.iter
      (fun oid loc ->
        if List.mem loc.l_seg compact_ids then
          Hashtbl.replace by_seg loc.l_seg
            ((oid, loc) :: Option.value ~default:[] (Hashtbl.find_opt by_seg loc.l_seg)))
      t.index;
    List.iter
      (fun seg ->
        let records =
          List.sort
            (fun (_, a) (_, b) -> Int.compare a.l_off b.l_off)
            (Option.value ~default:[] (Hashtbl.find_opt by_seg (Segment.id seg)))
        in
        if records <> [] then begin
          let image = Segment.load seg in
          List.iter
            (fun (oid, loc) ->
              (* Raw byte copy: the record (checksum included) is
                 immutable, so compaction never re-encodes. *)
              let raw = String.sub image loc.l_off loc.l_len in
              roll_if_needed t loc.l_len;
              let off = Segment.append t.active raw in
              Hashtbl.replace t.index oid
                { loc with l_seg = Segment.id t.active; l_off = off })
            records
        end)
      to_compact;
    Segment.flush_and_sync t.active;
    (* Swap: drop the compacted segments from the live set, publish the
       manifest, then delete the files.  A crash before the manifest
       leaves old+new copies (deduplicated on reopen); after it, the
       orphans are removed on reopen. *)
    t.segs <- List.filter (fun s -> not (List.mem (Segment.id s) compact_ids)) t.segs;
    write_manifest t;
    List.iter
      (fun seg ->
        Hashtbl.remove t.seg_by_id (Segment.id seg);
        Segment.delete seg)
      to_compact
  end
  else write_manifest t;
  (* Rewrite the generation log to the kept pins. *)
  let kept = List.sort (fun a b -> Int.compare a.g_num b.g_num) keep_gens in
  let dropped = List.length t.gens - List.length kept in
  let tmp = t.gens_path ^ ".tmp" in
  let oc = open_out_bin tmp in
  List.iter (fun g -> output_string oc (encode_gen g)) kept;
  close_out oc;
  Sys.rename tmp t.gens_path;
  fsync_dir t.pdir;
  t.gens <- List.rev kept;
  (* Publish the liveness snapshot so a reopen's scan cannot
     resurrect the dead records still sitting in under-threshold
     segments.  Everything is synced at this point, so the on-disk
     sizes are exact watermarks. *)
  let watermarks =
    List.map (fun s -> Segment.id s, Segment.file_bytes s) (t.segs @ [ t.active ])
  in
  let live_oids = Hashtbl.fold (fun oid _ acc -> oid :: acc) t.index [] in
  let snap_tmp = Filename.concat t.pdir (snapshot_name ^ ".tmp") in
  let oc = open_out_bin snap_tmp in
  output_string oc (encode_snapshot ~watermarks ~oids:live_oids);
  close_out oc;
  Sys.rename snap_tmp (Filename.concat t.pdir snapshot_name);
  fsync_dir t.pdir;
  let bytes_after = file_bytes t in
  t.ngc_bytes <- t.ngc_bytes + max 0 (bytes_before - bytes_after);
  {
    gc_live_objects = Hashtbl.length t.index;
    gc_swept_objects = !swept;
    gc_swept_data_bytes = !swept_data;
    gc_segments_compacted = compacted;
    gc_segments_deleted = compacted;
    gc_file_bytes_before = bytes_before;
    gc_file_bytes_after = bytes_after;
    gc_generations_dropped = max 0 dropped;
  }

(* --- counters ----------------------------------------------------------- *)

let object_count t = Hashtbl.length t.index
let data_bytes t = t.live_data_bytes
let dead_bytes t = file_bytes t - t.live_record_bytes
let segment_count t = 1 + List.length t.segs
let fsync_batches t = t.nbatches
let gc_reclaimed_bytes t = t.ngc_bytes
