(** Erase-and-replay: reconstruct an execution with some processes removed
    (Lemma 2 / Claim 1 of the paper), by resetting the store to the initial
    configuration and replaying the filtered schedule against fresh,
    deterministic process bodies. *)

val erase_from_schedule : int list -> erased:int list -> int list
(** Remove every entry of the erased pids from a schedule. *)

val replay :
  Session.t ->
  n:int ->
  make_body:(int -> unit -> unit) ->
  schedule:int list ->
  unit ->
  Scheduler.t
(** Reset the session's store, spawn [n] fresh processes (pid [i] runs
    [make_body i]) and replay [schedule].  The returned run is left open for
    further inspection and extension; the caller must eventually call
    {!Scheduler.finish}.  If the replay raises (a body's
    {!Scheduler.Process_failure}, or a step of a pid that is not active),
    the run is finished before the exception goes on.  Raises
    [Invalid_argument], leaving the store as it is, if a run is already
    open on [session]. *)

val indistinguishable_for :
  old_trace:Trace.t -> new_trace:Trace.t -> pid:int -> (unit, string) result
(** Check that [pid] issued the same events (object, primitive, response) in
    the replayed execution as in the original — the indistinguishability
    property Lemma 2 guarantees when erased processes were unknown to
    [pid]. *)

val indistinguishable_for_all :
  old_trace:Trace.t -> new_trace:Trace.t -> pids:int list -> (unit, string) result
