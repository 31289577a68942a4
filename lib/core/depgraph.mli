(** The Dependency Service (§3.1): extracts dependencies from source
    code automatically — "without the need to manually edit a
    makefile" — and answers the key question of incremental builds:
    when a module changes, which configs must be recompiled?

    Dependencies are static: the [import]/[import_thrift] statements
    of each source file, closed transitively. *)

type t

(** One entry of a CSL source's outline: an import statement, or a
    top-level [Bind]/[Def] name.  Targets are as written. *)
type item = Import of string | Import_thrift of string | Bound of string

type outline =
  | Parsed of item list  (** the file's items in statement order *)
  | Unparseable

val of_tree : Source_tree.t -> t
(** Index the whole tree.  Unparseable files get no edges and an
    [Unparseable] outline (the compiler will surface their errors). *)

val copy : t -> t
(** O(1): the copy shares the original's persistent maps, so
    {!update_file} on either never reaches the other.  What a
    proposal's development clone starts from before its edits are
    re-indexed. *)

val update_file : t -> Source_tree.t -> string -> unit
(** Re-extract one file's imports after an edit; when the edit creates
    or removes the file, also its importers', whose absolute imports of
    it change edge. *)

val direct_deps : t -> string -> string list
(** Imports of one file (normalized to tree paths), from its outline. *)

val outline : t -> string -> outline option
(** The outline of an indexed [.cconf], [.cinc] or validator source,
    kept from the parse that indexed it, so readers of a file's
    imports and names need not parse it again; [None] for other
    kinds and for paths not in the index. *)

val imports : t -> string -> item list
(** The [Import] and [Import_thrift] items of a file's outline, in
    statement order, read from the outline's edge prefix only, so the
    names a module binds after its imports are never decoded; [[]] for
    an unparseable file and for paths not in the index. *)

val dependents : t -> string -> string list
(** Files that directly import the given path, sorted. *)

val affected_configs : t -> string list -> string list
(** Given changed source paths, every [*.cconf] (or raw config) that
    must be recompiled: the changed configs themselves plus all
    transitive importers.  Sorted, deduplicated.  This is what makes
    one edit of "app_port.cinc" recompile both "app.cconf" and
    "firewall.cconf" in the same commit.

    When the change reaches a [*.thrift-cvalidator] (directly or
    through a module it imports), every [*.cconf] is returned: a
    validator applies to all configs of its type, and the type binding
    is only known after compiling each config. *)

val transitive_deps : t -> string -> string list
(** Full import closure of a file, sorted. *)
