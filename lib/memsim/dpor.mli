(** Dynamic partial-order reduction: exhaustive exploration up to
    commutation of independent events.

    Explores at least one representative interleaving of every Mazurkiewicz
    trace (equivalence class of executions modulo swapping adjacent
    independent events), instead of every interleaving like {!Explore.run}.
    Since independent events commute — they lead to the same store and the
    same per-process responses — any property of complete executions that
    is invariant under such swaps (final store state, linearizability of
    the extracted history, per-process step counts) is exhaustively
    verified, at a fraction of the schedules.

    The engine is Flanagan–Godefroid DPOR with persistent/backtrack sets
    (driven by vector-clock race detection) plus sleep sets.  It plugs
    into the same [Session]/[Scheduler]/[Trace] machinery and exposes the
    same [on_complete] callback as {!Explore.run}, so checkers consume it
    unchanged. *)

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
(** [run session ~n ~make_body ~on_complete ()] explores all maximal
    schedules of processes [0..n-1] up to trace equivalence.  A run
    cannot be forked, so it is extended one transition per node: a node
    hands its open run to the first child it explores, and a later
    sibling restarts at the node ({!Scheduler.restart} from the node's
    recorded trace: fresh bodies fast-forwarded through their recorded
    events, nothing scheduled again, and no body re-entered that had
    returned there) before applying its transition.  A body must
    therefore not rely on being re-executed for OCaml-side effects.
    [max_events] bounds the depth of a schedule; [max_int] means no
    bound.  Every trace passed to [on_complete] equals
    {!Replay.replay} of its own {!Trace.schedule} followed by
    {!Scheduler.active_pids} and {!Scheduler.finish}.  No run is open on
    [session] while [on_complete] runs, nor after [run] returns, whether
    it completed, hit a limit or was aborted.  [on_complete] returns
    [false] to abort early.  Handles processes whose step counts are
    schedule-dependent (retry loops).  At most 62 processes. *)
