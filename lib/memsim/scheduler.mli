(** The execution engine.

    Processes are plain OCaml functions whose shared-memory operations are
    intercepted through effects.  The scheduler exposes, for every active
    process, a full description of its enabled event — object and primitive
    with operands — before the event is applied, giving scheduling policies
    (round-robin, random, and the paper's adversaries) exactly the power of
    the adversary in the asynchronous shared-memory model. *)

type t

exception Process_failure of int * exn
(** An exception escaped a process body; carries the pid. *)

val create : Session.t -> t
(** Start a run.  At most one run may be in progress per session; shared
    data structures must be allocated before the run starts (they form the
    initial configuration). *)

val session : t -> Session.t

val spawn : t -> (unit -> unit) -> int
(** Register a process; returns its pid (dense, in spawn order).  The body
    is not executed until the process is first inspected or stepped. *)

(** {1 Inspection} *)

val enabled : t -> int -> (int * Event.prim) option
(** The process's enabled event, as (object id, primitive); [None] if it has
    finished (or was erased).  Runs the body up to its first event if
    needed — this is local computation, not a step. *)

val is_active : t -> int -> bool
val is_finished : t -> int -> bool
val active_pids : t -> int list
val steps_of : t -> int -> int
val event_count : t -> int

val entry_count : t -> int
(** Trace entries recorded so far: events plus Invoke/Return
    annotations.  Inspection ({!enabled}, {!is_active}, {!active_pids})
    issues no event, but starting a process whose first operation issues
    none records that operation's annotations; comparing [entry_count]
    around an inspection tells whether it did. *)

val current_trace : t -> Trace.t
(** Copy of the execution so far; the run remains in progress. *)

(** {1 Restarting} *)

type prefix
(** A point of a run: the first {!entry_count} entries of its trace. *)

val prefix : t -> prefix
(** The run's trace so far, and which of its processes had returned.
    Later steps of the run do not change it, and it stays valid after the
    run is finished, until a {!restart} rewinds the run's trace to a
    shorter point: the rewound trace is grown again from there, so every
    prefix of it longer than that point is stale, and {!restart} refuses
    it. *)

val initial : prefix
(** The empty prefix: the initial configuration. *)

val restart :
  Session.t -> n:int -> make_body:(int -> unit -> unit) -> prefix -> t
(** [restart session ~n ~make_body p] starts a fresh run of [n] processes
    (pid [i] runs [make_body i]) at [p], without scheduling [p]'s events
    again:
    - the store is brought to [p]'s point, and the new run's trace starts
      with [p]'s entries.  If [p] was taken from the run that finished
      last on [session], that run was itself started by [restart] (so it
      began at the initial configuration), and the store has not changed
      since it finished ({!Store.mutations}), the restart {e rewinds}:
      it undoes that run's events after [p] in the store, from the last
      back, restoring each one's [before] value, and cuts that run's
      trace back to [p] to grow the new run's trace on it
      ({!Trace.rewind}).
      Otherwise it copies [p]'s entries (shared) into a new trace,
      resets the store and sets each object touched in [p] to its last
      [after] value there.  Either way the store holds the initial
      values plus [p]'s events.  A run started by {!create} never
      qualifies: it starts wherever the store is;
    - every process with events in [p] that had returned when [p] was
      taken is finished without its body being entered: its events,
      {!steps_of} and annotations are all in [p];
    - every other process with events in [p] is started in
      fast-forward: this scheduler's effect handler answers each of its
      first operations with the response [p] recorded for it, touching
      no object, adding no trace entry and recording no annotation,
      until the process reaches an operation [p] does not hold (its
      enabled event).  A process's buffered invocations are dropped
      whenever one of its events is answered, since [p] holds them;
      those buffered after its last event stay buffered.  A handler the
      body installs itself still sees every operation;
    - every process without events in [p] is left unstarted.

    A body is therefore not re-entered after it returned, and one that
    has not returned is re-entered from its start: a body must not rely
    on being re-executed (or on not being) for OCaml-side effects —
    results it stores for the caller, say — since a restart decides
    which bodies run again.  A body must be a deterministic function of
    the responses to its operations: state it keeps in OCaml across
    runs (a private count that each re-run advances again, say) makes
    the re-run body issue other operations than the recorded ones.

    [restart] raises [Invalid_argument] without touching the store and
    without opening a run if a run is already in progress on [session],
    if [p] is stale (a later rewind of its trace went below it), or if
    [p] holds events of a pid [>= n].  A body that raises while it is
    fast-forwarded ends the new run ({!finish}) and raises
    {!Process_failure}.

    The result equals {!Replay.replay} of [p]'s {!Trace.schedule} —
    same entries, store, enabled events, {!steps_of}, {!is_finished},
    and the same run from there on — provided [p] was taken from a run
    of the same deterministic bodies whose first entries equal that
    replay's.  A run started by [restart] (or [Replay.replay]) and
    advanced by {!step} alone is one.  Inspection can break it:
    starting a process whose first operation issues no event records
    that operation's annotations at once, while a replay records them
    at the process's first step.  [restart session ~n ~make_body
    initial] is a fresh run with nothing replayed.  The caller must
    eventually {!finish} the run. *)

(** {1 Advancing} *)

val step : t -> int -> Event.t
(** Apply the enabled event of the given process (one step), returning it.
    Raises [Invalid_argument] if the process is not active. *)

val erase : t -> int -> unit
(** Discard a process: its continuation is unwound and it takes no further
    steps.  (Erasing retroactively — removing events already issued — is
    done by replaying a filtered schedule; see {!Replay}.) *)

val finish : t -> Trace.t
(** End the run: unwind all still-active processes, discard those not
    started yet, and return the execution.  Raises [Invalid_argument] if
    the run has finished already. *)

(** {1 Canned policies}

    The round-robin and seeded random runners are
    {!Faults.run_round_robin} and {!Faults.run_random}; under
    [Faults.gate []] every active process may step. *)

val run_solo : ?max_events:int -> t -> int -> unit
(** Run one process alone until it completes (obstruction-freedom). *)

val run_schedule : t -> int list -> unit
(** Apply steps in exactly the given pid order. *)
