(** The Git Tailer (Figure 3): continuously extracts config changes
    from the repository and writes them to Zeus for distribution.

    The tailer polls the repository (default every 5 s, matching the
    ~5 s tail latency the paper reports in §6.3).  The artifact paths
    changed since the last seen commit go to Zeus with their new
    content as one {!Cm_zeus.Service.write_all}: one quorum round per
    poll, and the artifacts of a landing commit all or none. *)

type t

val create :
  ?poll_interval:float ->
  ?is_artifact:(string -> bool) ->
  Cm_sim.Engine.t ->
  Cm_vcs.Repo.t ->
  Cm_zeus.Service.t ->
  t
(** [is_artifact] selects which repository paths are distributed
    (default: everything that is not CSL/Thrift source — i.e. compiled
    JSON artifacts and raw configs). *)

val start : t -> unit
(** Begins the poll loop. *)

val stop : t -> unit

val writes_issued : t -> int
(** Real Zeus writes only — no-op updates never reach this counter. *)

val writes_suppressed : t -> int
(** Artifact paths that commits touched but whose bytes were unchanged
    from the last distributed version (e.g. a rollback that restored
    the previous content between two polls): the write is skipped. *)

val force_poll : t -> unit
(** One immediate poll (used by tests). *)

val note_ctx : t -> path:string -> Cm_trace.Tracer.ctx -> unit
(** Parks a change's trace context against an artifact path that just
    landed in the repository; the poll that distributes the path
    records a [tailer.poll_wait] span and hands the context to the
    Zeus write.  No-op for untraced contexts and non-artifact paths. *)
