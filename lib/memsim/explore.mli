(** Exhaustive schedule exploration (bounded model checking): enumerate
    {e every} interleaving of a small set of deterministic processes and
    hand the resulting traces to a callback.  Affordable for 2–4
    processes with a few steps each — the regime where exhaustiveness
    beats random testing.

    One walk ({!walk}) serves every explorer: {!run}, {!Dpor.run} and
    {!Faults.explore} differ only in the node policy they give it. *)

type stats = {
  explored : int;      (** complete executions visited *)
  truncated : bool;    (** a limit stopped the enumeration *)
}

val walk :
  ?max_schedules:int ->
  ?max_events:int ->
  Session.t ->
  n:int ->
  make_body:(int -> unit -> unit) ->
  root:'a ->
  visit:(Scheduler.t -> depth:int -> 'a -> descend:(int -> 'a -> unit) -> bool) ->
  on_complete:(Trace.t -> bool) ->
  unit ->
  stats
(** [walk session ~n ~make_body ~root ~visit ~on_complete ()] explores
    the schedules of processes [0..n-1] depth first, as the node policy
    [visit] directs.  At each node, [visit sched ~depth state ~descend]
    is given the node's open run, its depth (steps taken, [0] at the
    root) and its policy state ([root] at the root).  It returns [true]
    when the execution is maximal, and its trace is delivered to
    [on_complete]; otherwise it calls [descend pid state'] for each
    child to explore, in order — the child steps [pid] and starts in
    [state'] — and returns [false].  Calling nothing prunes the node.
    [visit] may inspect the run ({!Scheduler.enabled},
    {!Scheduler.active_pids}) before its first [descend], which hands
    the run on, but must not step or finish it.
    [on_complete] returns [false] to abort early (e.g. when a
    counterexample is found); [descend] does nothing after that.
    [max_events] (default 60) bounds the depth of a schedule and
    [max_schedules] (default 1_000_000) the traces delivered; a child
    beyond either is not explored, and [truncated] is set.

    {b Restarts.}  A run cannot be forked, so it is extended one step
    per node: a node hands its open run to its first child, and a later
    sibling restarts at the node ({!Scheduler.restart} from the node's
    recorded trace: fresh bodies fast-forwarded through their recorded
    events, nothing scheduled again) before applying its step.  A node
    whose inspection recorded a trace entry (it started a process whose
    first operation issues no event) restarts every child from the
    trace as it was before the inspection.

    {b Re-entry.}  A restart does not re-enter a body that had returned
    at the node, and re-enters the others from their start: a body must
    not rely on being re-executed (or on not being) for OCaml-side
    effects — a result it stores for [on_complete], say — so read
    results from the trace or the store.

    {b Replay equality.}  Every delivered trace equals {!Replay.replay}
    of its own {!Trace.schedule} followed by {!Scheduler.active_pids}
    and {!Scheduler.finish}.

    {b No run left open.}  No run is open on [session] while
    [on_complete] runs, nor after [walk] returns — whether it completed,
    hit a limit or was aborted — or raises: a body's exception
    ({!Scheduler.Process_failure}) finishes the run first.  Raises
    [Invalid_argument], opening no run and leaving the store as it is,
    if a run is already open on the session. *)

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
    schedules of processes [0..n-1], children in ascending pid order:
    {!walk} descending into every active process.  Handles processes
    whose step counts depend on the schedule (retry loops). *)

val solo_counts :
  Session.t -> n:int -> make_body:(int -> unit -> unit) -> int array
(** Per-process event counts measured by running each process solo, in
    pid order, on one fresh run that is finished before the counts are
    returned or a body's exception goes on. *)
