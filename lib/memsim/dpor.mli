(** Dynamic partial-order reduction: exhaustive exploration up to
    commutation of independent events.

    Aims to explore one representative interleaving of every
    Mazurkiewicz trace (equivalence class of executions modulo swapping
    adjacent independent events), instead of every interleaving like
    {!Explore.run}.  Since independent events commute — they lead to the
    same store and the same per-process responses — any property of
    complete executions that is invariant under such swaps (final store
    state, linearizability of the extracted history, per-process step
    counts) holds of a whole class once it holds of its representative.
    The engine misses some classes of programs over several objects (a
    race reversal can be assigned to a pid that sleeps where it must be
    explored), so a verdict covers the classes it reaches.

    The engine is Flanagan–Godefroid DPOR with persistent/backtrack sets
    (driven by vector-clock race detection) plus sleep sets.  It is a
    node policy over {!Explore.walk} and exposes the same [on_complete]
    callback as {!Explore.run}, so checkers consume it unchanged. *)

type stats = {
  explored : int;       (** complete executions delivered to [on_complete] *)
  sleep_blocked : int;  (** paths pruned by sleep sets before completion *)
  truncated : bool;     (** a limit stopped the exploration *)
}

val dependent : int * Event.prim -> int * Event.prim -> bool
(** The independence relation, on (object id, primitive) descriptions as
    exposed by {!Scheduler.enabled}: two events are dependent iff they
    touch the same object and at least one writes or CASes.  (A failed CAS
    actually commutes with reads, but success is only known after the
    event is applied, so CAS is conservatively write-like.) *)

val run :
  ?max_schedules:int ->
  ?max_events:int ->
  Session.t ->
  n:int ->
  make_body:(int -> unit -> unit) ->
  on_complete:(Trace.t -> bool) ->
  unit ->
  stats
(** [run session ~n ~make_body ~on_complete ()] explores the maximal
    schedules of processes [0..n-1] up to trace equivalence.  The restarts, the
    re-entry rule, the replay equality, the early abort and the run
    lifecycle are {!Explore.walk}'s.  [max_events] (default 200) bounds
    the depth of a schedule, and [max_int] means no bound;
    [max_schedules] (default 1_000_000) bounds the traces delivered.
    Handles processes whose step counts are schedule-dependent (retry
    loops).  At most 62 processes. *)
