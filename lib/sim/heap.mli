(** Binary min-heap keyed by [(time, sequence)].

    The sequence number breaks ties so that events scheduled for the
    same instant fire in scheduling order (FIFO), which keeps the
    simulator deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> seq:int -> 'a -> unit

val pop : 'a t -> (float * int * 'a) option
(** Removes and returns the minimum element. *)

val peek : 'a t -> (float * int * 'a) option
