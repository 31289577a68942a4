(** Measurement helpers shared by the experiments: histograms with
    quantiles, counters, and fixed-width time series. *)

module Histogram : sig
  (** Count, sum, mean, min and max are streamed exactly over
      every sample; order statistics (quantile, cdf) are computed over
      a bounded uniform reservoir (Vitter's Algorithm R, capacity
      [cap]).  Below [cap] samples the reservoir holds everything and
      quantiles are exact; beyond it memory stays O(cap) no matter how
      many million samples a fleet run adds. *)

  type t

  val create : ?cap:int -> unit -> t
  (** [cap] is the reservoir capacity, default 65536. *)

  val add : t -> float -> unit

  val add_weighted : t -> float -> weight:int -> unit
  (** Adds [weight] copies of the value in O(reservoir insertions)
      rather than O(weight) — how cohorts record one observation for
      thousands of aggregated members. *)

  val count : t -> int
  (** Samples ever added, weights included. *)

  val sample_size : t -> int
  (** Samples currently held in the reservoir (= [count] until the
      reservoir saturates). *)

  val sum : t -> float
  val mean : t -> float
  val min : t -> float
  val max : t -> float

  val quantile : t -> float -> float
  (** [quantile t q] with [q] in [\[0,1\]]; linear interpolation over
      the reservoir.  Returns [nan] when empty. *)

  val cdf_at : t -> float -> float
  (** Fraction of reservoir samples <= the given value. *)
end

module Counter : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> unit
  val value : t -> int
  val reset : t -> unit
end

module Series : sig
  (** Accumulates samples into fixed-width time buckets — used to plot
      "per hour" / "per day" curves like the paper's Figures 11-14. *)

  type t

  val create : bucket_width:float -> t
  val add : t -> time:float -> float -> unit

  val buckets : t -> (float * float) array
  (** [(bucket_start_time, sum)] in time order; empty buckets between
      populated ones are included with sum 0. *)

  val counts : t -> (float * int) array
  (** [(bucket_start_time, sample_count)]. *)

  val means : t -> (float * float) array
  (** [(bucket_start_time, mean)] for non-empty buckets. *)
end
