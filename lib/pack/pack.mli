(** Durable content-addressed object store: append-only pack segments,
    an in-memory oid index rebuilt by scan on open, batched group
    fsync, a root-pinned generation log, and mark-and-sweep GC with
    segment compaction.

    The design follows the Nix/system-manager model grounded in
    PAPERS.md/SNIPPETS.md: objects are immutable and addressed by
    content, so durability is append-only; each landed commit pins a
    {e generation} (a root oid) in a separate log, so whole-tree
    rollback is one O(1) pin append rather than any data movement; and
    everything unreachable from live generation roots is garbage.

    {2 Durability model}

    Appends buffer in memory.  {!sync} writes the buffer and fsyncs —
    one fsync per {e batch}, not per object (the Zeus 50ms-batch
    discipline): a put that arrives [sync_window] seconds or more
    after the first unsynced one triggers the sync automatically, and
    callers that need a commit durable {e now} call {!sync} directly.
    {!durable_generation} reports the newest generation whose pin and
    data batches have been fsynced; everything newer is exactly what a
    [kill -9] would lose ({!crash} models that, including torn tail
    records).

    {2 Crash recovery}

    {!create} on an existing directory scans every segment: verified
    records rebuild the index; a torn tail (crash mid-append) is
    truncated; a checksum-corrupt record in the middle is skipped and
    reported, never fatal; segments left by an interrupted compaction
    are deduplicated or deleted via the manifest; and records a past
    GC swept but left in under-threshold segments are fenced out by
    the liveness snapshot each GC publishes (live oids plus
    per-segment watermarks — anything written after the snapshot is
    past a watermark and therefore live).  {!recovery} reports what
    the scan found. *)

type t

type gen = {
  g_num : int;  (** sequential from 1 *)
  g_root : string;  (** the pinned root oid *)
  g_time : float;
  g_message : string;
}

type recovery = {
  segments_scanned : int;
  records_indexed : int;
  duplicates_skipped : int;  (** re-copies left by an interrupted GC *)
  corrupt_skipped : int;  (** checksum-failed records (skipped, reported) *)
  torn_tail_bytes : int;  (** truncated from segment tails *)
  generations_read : int;
  generations_corrupt_skipped : int;
  generation_tail_bytes : int;  (** truncated from the generation log *)
}

type gc_stats = {
  gc_live_objects : int;
  gc_swept_objects : int;
  gc_swept_data_bytes : int;  (** payload data of swept objects *)
  gc_segments_compacted : int;
  gc_segments_deleted : int;
  gc_file_bytes_before : int;
  gc_file_bytes_after : int;
  gc_generations_dropped : int;
}

val create :
  dir:string ->
  ?sync_window:float ->
  ?segment_max_bytes:int ->
  ?compact_min_dead_fraction:float ->
  ?clock:(unit -> float) ->
  ?domains:int ->
  unit ->
  t
(** Opens (or initialises) a pack directory.  [sync_window] (default
    0.05s) is the group-fsync batch window measured on [clock]
    (default wall clock; simulations pass [Engine.now]).
    [segment_max_bytes] (default 8 MiB) rolls the active segment.
    [compact_min_dead_fraction] (default 0.25) is the dead-byte
    fraction beyond which GC compacts a segment.  [domains] (default
    1) fans the recovery scan — per-segment image load + record-frame
    walk — across that many domains; index construction stays
    sequential in segment order, so the recovered state is identical
    at any setting. *)

val dir : t -> string
val recovery : t -> recovery

(** {1 Objects} *)

val put : t -> oid:string -> data:string -> bool
(** Appends the object unless already present; [true] if appended. *)

val find : t -> string -> string option
val mem : t -> string -> bool

val oids : t -> string list
(** All live object ids, unordered. *)

(** {1 Generations} *)

val land_generation : t -> root:string -> timestamp:float -> message:string -> int
(** Pins [root] as the next generation; returns its number.  O(1):
    one record appended to the generation log, synced with the same
    batch as the object data. *)

val generations : t -> gen list
(** Oldest first. *)

val last_generation : t -> int
(** 0 before any pin. *)

val durable_generation : t -> int
(** Newest generation fully fsynced — survives [kill -9]. *)

(** {1 Durability} *)

val sync : t -> unit
(** Flush + fsync segment and generation log (one batch). *)

val pending_bytes : t -> int
(** Bytes buffered but not yet fsynced (would be lost by a crash). *)

val pending_data_bytes : t -> int
(** The segment-buffer part of {!pending_bytes} (excluding buffered
    generation pins) — the range [crash]'s [surviving_data_bytes]
    cuts. *)

val crash : t -> ?surviving_data_bytes:int -> ?surviving_gen_bytes:int -> unit -> unit
(** Models [kill -9]: at most the given prefixes of the unsynced
    buffers reach disk (defaults 0) — a prefix that cuts a record
    mid-payload leaves a torn tail for recovery to truncate.  The
    handle is unusable afterwards; reopen the directory with
    {!create}. *)

val close : t -> unit
(** Graceful shutdown: {!sync} then close descriptors. *)

(** {1 Garbage collection} *)

val gc : t -> live:(string -> bool) -> keep_gens:gen list -> gc_stats
(** Mark-and-sweep from the caller's liveness predicate: drops dead
    objects from the index, compacts segments whose dead fraction
    exceeds the threshold (copy-live-forward into the active segment,
    manifest swap, delete), and rewrites the generation log to exactly
    [keep_gens].  Crash-safe: an interruption leaves either the old
    segments, or old + new copies (deduplicated on reopen), never a
    state that loses live objects. *)

(** {1 Counters} *)

val object_count : t -> int
val data_bytes : t -> int
(** Payload data bytes of live objects (= the serialized-object bytes
    a memory store would hold). *)

val file_bytes : t -> int
(** Total segment bytes including framing, dead records and pending
    appends. *)

val dead_bytes : t -> int
(** [file_bytes] not accounted to a live record. *)

val segment_count : t -> int
val fsync_batches : t -> int
val gc_reclaimed_bytes : t -> int
(** Cumulative segment-file bytes reclaimed by GC. *)
