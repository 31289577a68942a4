(** Content-addressable object store (the ".git/objects" of our git
    substitute).  Objects are addressed by the hex digest of their
    serialized form; storing the same content twice is free — and
    counted, so structural sharing between revisions is observable
    ({!dedup_hits}/{!dedup_bytes}, surfaced by `configerator repo
    stats`).

    Two backends sit behind one interface: [Memory] (the default —
    a hashtable, nothing survives the process) and [Pack] (durable
    append-only pack segments via {!Cm_pack.Pack}, with batched group
    fsync, crash recovery by scan, and a generation log).  Counter
    semantics ({!total_bytes}, {!put_count}, {!dedup_hits},
    {!dedup_bytes}) are backend-independent: the same sequence of puts
    yields the same numbers on either backend.

    {2 Generations}

    Every landed commit pins its oid as a {e generation} — a numbered
    root in an append-only log.  Rollback is then O(1): repoint at an
    old root and pin that as a new generation; no object moves.  On
    the [Memory] backend the log is in-memory (same semantics, used
    for differential testing); on [Pack] it is durable and replayed
    on open. *)

type oid = string
(** Hex digest. *)

type obj =
  | Blob of string
  | Tree of (string * oid) list
      (** sorted [name -> oid] listing.  The flat backend stores full
          paths mapping to blob oids (one wide tree).  The Merkle
          backend stores path {e components}, where an entry's oid may
          name a [Blob] (a file) or another [Tree] (a subdirectory) —
          the same component may appear once as each when a path is
          both a file and a directory prefix.  A wide Merkle directory
          is split into fan nodes: [Tree]s whose entries are named
          ['\002'] plus one hex digit and point at [Tree]s holding the
          directory's entries whose name digests have that digit (see
          {!Repo}).  Names must not contain NUL or newline bytes (the
          serialized form uses them as delimiters); {!Repo.commit}
          enforces this for paths. *)
  | Commit of commit

and commit = {
  tree : oid;
  parents : oid list;
  author : string;
  message : string;
  timestamp : float;
  generation : int;
      (** 1 + the parent's generation (root commit = 1), so
          ancestry on a linear history is a single integer compare.
          [0] means "untracked": the flat backend deliberately leaves
          it unset to keep its history walks honest (Figure 13). *)
  changed : string list;
      (** Paths whose content this commit actually changed relative to
          its first parent, sorted — the per-commit change record that
          makes history scans O(changed).  [[]] for flat-backend
          commits (untracked) and for no-op commits. *)
}

type backend =
  | Memory
  | Pack of {
      dir : string;
      sync_window : float;
      segment_max_bytes : int;
      compact_min_dead_fraction : float;
      clock : (unit -> float) option;
      domains : int;
    }

val pack_backend :
  ?sync_window:float ->
  ?segment_max_bytes:int ->
  ?compact_min_dead_fraction:float ->
  ?clock:(unit -> float) ->
  ?domains:int ->
  string ->
  backend
(** [pack_backend dir] with the {!Cm_pack.Pack.create} defaults
    (50 ms sync window, 8 MiB segments, 0.25 compaction threshold,
    single-domain recovery scan; [domains] fans the open-time segment
    scan out without changing the recovered state). *)

type t

val create : ?backend:backend -> unit -> t
(** Default [Memory].  With [Pack], opens (or initialises) the pack
    directory — on an existing directory this is crash recovery: the
    segment scan rebuilds the object index and the generation log is
    replayed (see {!pack_handle} and {!Cm_pack.Pack.recovery}). *)

val backend : t -> backend

val pack_handle : t -> Cm_pack.Pack.t option
(** The underlying pack store, for backend-specific statistics
    (segments, file/dead bytes, fsync batches, recovery report) and
    crash modeling.  [None] on [Memory]. *)

val serialize : obj -> string

val put : t -> obj -> oid
(** Serializes, hashes, stores; returns the id.  Idempotent. *)

val get : t -> oid -> obj option
val get_exn : t -> oid -> obj

val mem : t -> oid -> bool
val object_count : t -> int

val oids : t -> oid list
(** All live object ids, unordered. *)

(** {1 Generations} *)

type gen = {
  gen_num : int;  (** sequential from 1 *)
  gen_root : oid;
  gen_time : float;
  gen_message : string;
}

val land_generation : t -> root:oid -> timestamp:float -> message:string -> int
(** Pins [root] as the next generation; returns its number. *)

val generations : t -> gen list
(** Oldest first. *)

val last_generation : t -> int
(** 0 before any pin. *)

val durable_generation : t -> int
(** Newest generation guaranteed to survive [kill -9].  Equals
    {!last_generation} on [Memory] (nothing survives anyway) and on
    [Pack] after {!sync}. *)

val sync : t -> unit
(** Force the group-fsync batch out now.  No-op on [Memory]. *)

val close : t -> unit
(** Graceful shutdown ({!sync} + close descriptors).  No-op on
    [Memory]. *)

(** {1 Garbage collection} *)

type gc_stats = {
  gc_live : int;  (** objects surviving *)
  gc_swept : int;  (** objects removed *)
  gc_swept_bytes : int;
      (** serialized bytes removed — backend-independent: identical
          for the same sweep on [Memory] and [Pack] *)
  gc_dropped_generations : int;
}

val gc : t -> keep_last:int -> gc_stats
(** Mark-and-sweep: keeps the newest [keep_last] generations, marks
    the commit → tree closure of each kept root (parents are {e not}
    followed — retained history is exactly the kept generations), and
    sweeps everything else.  On [Pack] this also compacts segments
    past the dead-fraction threshold and rewrites the generation log
    (see {!Cm_pack.Pack.gc}). *)

(** {1 Counters} *)

val total_bytes : t -> int
(** Sum of serialized sizes of all stored objects (each counted once,
    however often it was put). *)

val put_count : t -> int
(** Total {!put} calls, including deduplicated ones. *)

val dedup_hits : t -> int
(** Puts that found their object already present. *)

val dedup_bytes : t -> int
(** Serialized bytes those deduplicated puts did {e not} add — the
    byte cost structural sharing avoided. *)
