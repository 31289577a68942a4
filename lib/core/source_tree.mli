(** The config source tree: every file an engineer (or automation
    tool) edits, keyed by repository path.

    File kinds follow the paper's naming (Figure 2):
    - [*.cconf]      — a config program whose export becomes one JSON config
    - [*.cinc]       — a reusable module imported by other sources
    - [*.thrift]     — a schema
    - [*.cvalidator] — a validator program bound to a schema type
    - anything else  — a "raw config" distributed as-is *)

type kind = Cconf | Cinc | Thrift | Cvalidator | Raw

val kind_of_path : string -> kind

type t

val create : unit -> t
val of_alist : (string * string) list -> t

val copy : t -> t
(** O(1): a tree is a handle on persistent maps, and the copy shares
    them.  A {!write} or {!remove} on either rebinds only that handle,
    so the copy is independent of the original (its validator index
    included). *)

val write : t -> string -> string -> unit
val remove : t -> string -> unit
val read : t -> string -> string option
val mem : t -> string -> bool
val paths : t -> string list
(** Sorted by construction: read off the map in key order. *)

val paths_of_kind : t -> kind -> string list
(** Sorted: [List.filter (fun p -> kind_of_path p = kind) (paths t)].
    [Cvalidator] paths come from an index that {!write}, {!remove},
    {!of_alist} and {!copy} keep current, so they cost the number of
    validators and never walk the tree; every other kind filters the
    whole tree. *)

val count : t -> int

val loader : t -> string -> string option
(** The import resolver handed to {!Cm_lang.Eval.run}: resolves both
    relative siblings and absolute repository paths. *)

val snapshot : t -> (string * string) list
(** [(path, content)] pairs, sorted by construction — what gets
    committed. *)
