(** JSON document values.

    This is the artifact format of the whole stack: the Configerator
    compiler emits JSON configs, Gatekeeper projects and MobileConfig
    translation maps are stored as JSON, and the distribution layer
    moves JSON bytes.  The representation is a plain algebraic type so
    that configs can be pattern-matched, diffed and canonicalized. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

(** {1 Constructors and accessors} *)

val obj : (string * t) list -> t
(** [obj fields] builds an object; alias for {!Assoc}. *)

val member : string -> t -> t option
(** [member key json] returns the value bound to [key] when [json] is
    an object containing it. *)

val path : string list -> t -> t option
(** [path keys json] walks nested objects, e.g.
    [path ["a"; "b"] json] reads [json.a.b]. *)

val index : int -> t -> t option
(** [index i json] returns element [i] when [json] is a list. *)

val to_int : t -> int option
val to_float : t -> float option
(** [to_float] accepts both [Int] and [Float] values. *)

val to_string : t -> string option
val to_list : t -> t list option

(** {1 Structure} *)

val equal : t -> t -> bool
(** Structural equality; object key order is significant. *)

val equal_canonical : t -> t -> bool
(** Equality up to object key order. *)

val compare : t -> t -> int

val canonicalize : t -> t
(** Recursively sorts object keys, giving a canonical form suitable for
    hashing and semantic comparison. *)

val hash : t -> string
(** Hex digest of the canonical serialized form.  Used for
    MobileConfig value hashes and PackageVessel content ids. *)

val size_bytes : t -> int
(** Length in bytes of the compact serialization; the config "size"
    reported by the size-distribution experiments. *)

val depth : t -> int
(** Nesting depth; a scalar has depth 0. *)

val fold_scalars : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Folds over every scalar leaf, in document order. *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer (multi-line, 2-space indent). *)

val to_compact_string : t -> string
(** One-line serialization with no insignificant whitespace. *)

val to_pretty_string : t -> string
(** Multi-line serialization as produced by {!pp}. *)
