(** Exhaustive schedule exploration (bounded model checking): enumerate
    {e every} interleaving of a small set of deterministic processes and
    hand the resulting traces to a callback.  Affordable for 2–4
    processes with a few steps each — the regime where exhaustiveness
    beats random testing. *)

type stats = {
  explored : int;      (** complete executions visited *)
  truncated : bool;    (** a limit stopped the enumeration *)
}

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
    schedules of processes [0..n-1], depth first, children in ascending
    pid order.  [on_complete] returns [false] to abort early (e.g. when a
    counterexample is found).  Handles processes whose step counts
    depend on the schedule (retry loops).  [max_events] (default 60)
    bounds the depth of a schedule and [max_schedules] (default
    1_000_000) the traces delivered; hitting either sets [truncated].

    Runs are extended as in {!Dpor.run}: a node hands its open run to
    its first child, and a later sibling restarts at the node
    ({!Scheduler.restart}); a node whose inspection recorded a trace
    entry restarts every child.  A restart does not re-enter a body that
    had returned at the node, and fast-forwards the others from their
    start: a body must not rely on being re-executed for OCaml-side
    effects (a result it stores for [on_complete], say), so read results
    from the trace or the store.  Every delivered trace equals
    {!Replay.replay} of its own {!Trace.schedule} followed by
    {!Scheduler.active_pids} and {!Scheduler.finish}.  No run is open on
    [session] while [on_complete] runs, nor after [run] returns or
    raises.  Raises [Invalid_argument], leaving the store as it is, if a
    run is already open on the session. *)

val walk :
  ?max_schedules:int ->
  ?max_events:int ->
  settle:(Scheduler.t -> int -> int * int list) ->
  Session.t ->
  n:int ->
  make_body:(int -> unit -> unit) ->
  on_complete:(Trace.t -> bool) ->
  unit ->
  stats
(** {!run} under a gate.  At each node, [settle sched point] is given the
    open run and the node's scheduling point (steps plus idle ticks so
    far, [0] at the root); it returns the point after the idle ticks it
    took and the pids that may step there, ascending.  The walk steps
    each of them in turn, the child starting at that point plus one; no
    pid means the execution is maximal, and its trace is delivered.
    [settle] must be a function of the run's trace and the point, and
    must not step the run.  [run] is [walk] with [settle] answering the
    point it is given and {!Scheduler.active_pids}. *)

val solo_counts :
  Session.t -> n:int -> make_body:(int -> unit -> unit) -> int array
(** Per-process event counts measured by running each process solo, in
    pid order, on one fresh run that is finished before the counts are
    returned or a body's exception goes on. *)
