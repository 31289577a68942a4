(** A version-controlled repository with linear history.

    Configerator serializes all commits through the landing strip
    (§3.6), so the master history is a straight line; this module
    models exactly that — under two interchangeable storage backends:

    - {b [Merkle]} (the default): directory-sharded Merkle trees with
      bounded-width nodes, plus per-repo indexes.  A directory of at
      most 32 entries is one tree node; a wider one becomes a fan node
      of up to 16 buckets keyed by the hex digits of an MD5 of each
      entry name, split again while a bucket holds more than 32 (a
      HAMT-sharded directory).  So no node holds more than 32 entries,
      and the layout is a function of the file map alone, never of
      history.  A commit re-hashes only the dirty spine (the changed
      paths' nodes and their ancestors): commit CPU and bytes are
      O(changed paths x depth x 32), however wide a directory grows,
      where depth counts directory levels plus one fan level per 16x
      of width beyond 32.  Unchanged nodes are shared by oid.  Head
      reads go through a path->oid hash index (O(1)); commits carry
      generation numbers and changed-path records, so ancestry checks
      are a generation compare plus a bounded walk and history scans
      replay change records instead of re-diffing trees.
    - {b [Flat]}: the original single wide tree.  Committing rebuilds
      and re-hashes the whole listing and history scans re-diff full
      trees, so operations genuinely slow down as the repository grows
      — the degradation the paper measures in Figure 13.  It is kept
      (not just for tests) so that curve, and the multi-repo remedy's
      crossover, remain reproducible; `bench vcs` sweeps both.

    Both backends are observationally equivalent on
    [read_file]/[ls]/[changed_*]/[log] (a QCheck property holds them
    to it); only cost and object layout differ. *)

type t

type backend = Flat | Merkle

val backend_name : backend -> string

val create : ?backend:backend -> ?store:Store.backend -> ?name:string -> unit -> t
(** [backend] defaults to [Merkle]; [store] to [Store.Memory] (pass
    {!Store.pack_backend} for a durable repository). *)

val of_store : ?backend:backend -> ?name:string -> Store.t -> t
(** Reopens a repository from a recovered store (crash recovery): head
    becomes the newest generation whose commit -> tree closure is
    fully present — a pin whose data batch was lost to the crash is
    skipped (see {!recovery_dropped}) — and the Merkle indexes are
    rebuilt in O(files at head) + O(retained history), independent of
    total history length.  [backend] is inferred from the head
    commit's generation sentinel (0 = [Flat]) unless given. *)

val recovery_dropped : t -> int
(** Generations skipped as incomplete by {!of_store} (0 normally). *)

val name : t -> string
val store : t -> Store.t
val backend : t -> backend

val head : t -> Store.oid option
(** [None] before the first commit. *)

type change = string * string option
(** [(path, Some content)] writes a file; [(path, None)] deletes it. *)

val commit :
  t -> author:string -> message:string -> timestamp:float -> change list -> Store.oid
(** Applies changes on top of head; returns the new commit id.
    @raise Invalid_argument on an empty change list, a path that
    {!path_error} rejects, or a delete of a missing path. *)

val path_error : string -> string option
(** Why [path] cannot be committed, or [None] if it can.  A path must
    not contain NUL, newline, ['\001'] or ['\002'] bytes (the object
    format's delimiters and the Merkle fan-node marker) nor an empty
    component (a leading, trailing or doubled ['/']). *)

val read_file : ?rev:Store.oid -> t -> string -> string option
(** O(1) at head under the Merkle backend (hash index); O(depth x 32)
    at a historical revision. *)

val ls : ?rev:Store.oid -> ?prefix:string -> t -> string list
(** All paths at a revision (default head), sorted; with [prefix],
    only paths starting with it.  Under the Merkle backend a prefix
    listing descends the spine and touches only matching subtrees —
    O(matching paths + depth x 32), not O(repo). *)

val file_count : t -> int
val commit_count : t -> int

val log : ?limit:int -> t -> (Store.oid * Store.commit) list
(** Newest first. *)

val commit_info : t -> Store.oid -> Store.commit option

val changed_paths_of_commit : t -> Store.oid -> string list
(** Paths the commit touched relative to its first parent.  Merkle:
    the commit's recorded change list, O(changed); flat: recomputed by
    a full-tree diff. *)

val path_history : t -> string -> (Store.oid * Store.commit) list
(** Commits that changed [path], newest first.  Merkle: a per-path
    touch index, O(touches of path); flat: a full history scan. *)

val changed_since : t -> base:Store.oid option -> string list
(** Union of paths touched by commits after [base] up to head.
    [base = None] means "everything at head". *)

val changed_between : t -> base:Store.oid option -> head:Store.oid -> string list
(** Content-level diff of the two revisions' trees: paths whose blob
    id differs between [base] and [head] (plus additions/removals),
    sorted.  Unlike {!changed_since}, a path rewritten and then
    reverted between the endpoints does {e not} appear — the tailer
    uses this to suppress no-op distribution writes.  Merkle trees
    recurse only into nodes whose oids differ, bucket by bucket in a
    wide directory: O(changed paths x depth x 32). *)

val conflicts : t -> base:Store.oid option -> paths:string list -> string list
(** Of [paths], those also modified between [base] and head — the
    landing strip's true-conflict test.  O(touched + |paths|). *)

val is_ancestor : t -> Store.oid -> of_:Store.oid -> bool
(** Merkle: O(1) generation compare for most negatives, then a walk
    bounded by the generation gap; flat: a linear history walk. *)

(** {1 Generations}

    Every landed commit pins its oid as a numbered generation in the
    store (see {!Store.generations}), so the generation log is a
    queryable linear history of landed states — and rollback is O(1)
    at the store however long the history is. *)

val rollback : t -> generation:int -> timestamp:float -> int
(** Atomically repoints head at the root pinned by [generation] and
    pins that root as a {e new} generation (so the rollback itself is
    in the log and is itself rollback-able); returns the new
    generation number.  O(1) at the store — one pin record appended,
    no data moved; the Merkle index rebuild is O(files at head).
    @raise Invalid_argument on an unknown generation number. *)

val gc : t -> keep_last:int -> Store.gc_stats
(** {!Store.gc}: keep the newest [keep_last] generations, sweep
    everything unreachable from their roots.  Head always survives
    (it is pinned by the newest generation). *)
