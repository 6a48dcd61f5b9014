(** Fault injection: crash/stall adversaries as composable fault plans.

    The paper's headline properties are progress properties — Algorithm A
    is wait-free, the f-array structures are helped along by concurrent
    operations — and such properties only show their worth when processes
    misbehave: crash mid-operation, stall for long stretches, or suffer
    spurious CAS failures.  A {!plan} describes such misbehaviour as data,
    so the same plan can drive a random stress run, a deterministic
    liveness audit, or an exhaustive exploration, and can be printed,
    parsed and minimized when a violation is found.

    Faults come in two kinds, with different composition points:

    - {b Program-level} faults ({!Crash}, {!Cas_fail}) are transformations
      of the process bodies, applied by {!instrument}: a crash truncates a
      body after a fixed number of its own events, a CAS failure replaces
      the n-th CAS by a read answered [false] (the spurious-failure
      semantics of weak compare-exchange).  Both are keyed on the
      process's {e local} step counts, so they are schedule-independent:
      an instrumented program is an ordinary program, and every scheduler
      — {!Scheduler}'s canned policies, {!Explore.run}, {!Dpor.run},
      {!Shrink} — runs it unchanged.  In particular DPOR's trace-level
      pruning remains sound: it exhaustively explores the {e faulted}
      program.

    - {b Scheduler-level} faults ({!Stall}, {!Halt_all_but}) constrain
      which process may be scheduled at each global scheduling point.
      They are applied through a {!gate} consulted by the gated runners
      (or any custom policy).  A stall does not create new executions —
      every gated execution is an execution of the unfaulted program, so
      exhaustive no-fault verification covers stalled safety; what a
      stall plan adds is the ability to audit {e per-execution} progress
      properties (step ceilings with a helper frozen) and to bias random
      search toward hostile schedules.

    A crashed process's last operation has an Invoke and no Return, so it
    is pending in the extracted history; {!Linearize.Checker} permits a
    pending operation to take effect or be dropped — exactly
    crash-restricted linearizability of the surviving history (see
    DESIGN.md §11). *)

type fault =
  | Crash of { pid : int; after : int }
      (** [pid] executes exactly [after] further shared-memory events,
          then crashes permanently (its body is truncated; events beyond
          [after] are never issued).  [after = 0] crashes it before its
          first event. *)
  | Cas_fail of { pid : int; nth : int }
      (** [pid]'s [nth] CAS (1-based, counted over its whole body)
          spuriously fails: the event is replaced by a read of the same
          object — still one step — and the operation is answered
          [false]. *)
  | Stall of { pid : int; at : int; points : int }
      (** [pid] may not be scheduled while the global scheduling point
          lies in [\[at, at + points)]. *)
  | Halt_all_but of { pid : int; at : int }
      (** From global scheduling point [at] on, only [pid] may be
          scheduled (every other process is frozen forever). *)

type plan = fault list

val pp : plan Fmt.t

val to_string : plan -> string
(** Compact replayable syntax, the inverse of {!parse}:
    [crash:PID\@AFTER], [casfail:PID#NTH], [stall:PID\@AT+POINTS],
    [haltbut:PID\@AT], comma-separated. *)

val parse : string -> (plan, string) result
(** Inverse of {!to_string}: [parse (to_string plan) = Ok plan] for
    every duplicate-free plan, preserving clause order.  Whitespace
    around numbers, kinds and commas is tolerated; a clause repeated
    verbatim is rejected with a clear error (it would silently apply
    once). *)

(** {1 Program-level composition} *)

val instrument : plan -> (int -> unit -> unit) -> int -> unit -> unit
(** [instrument plan make_body] applies the plan's {!Crash} and
    {!Cas_fail} faults to the bodies; {!Stall}/{!Halt_all_but} entries
    are ignored (gate them at the scheduler, {!gate}).  The result is an
    ordinary [make_body], usable with any scheduler or explorer. *)

(** {1 Scheduler-level composition} *)

type gate
(** Mutable per-run gating state: tracks the global scheduling point and
    answers, for each process, whether the plan permits scheduling it
    now.  Create a fresh gate per run (or per replayed prefix). *)

val gate : plan -> gate

val permits : gate -> int -> bool
(** May [pid] be scheduled at the current point? *)

val halted_forever : gate -> int -> bool
(** Is [pid] frozen at every point from the current one on (a
    {!Halt_all_but} in effect names another process)? *)

val tick : gate -> unit
(** Advance one scheduling point without a step (an idle point: every
    runnable process is gated).  The gated runners tick through stalls
    so finite stalls always expire. *)

(** {1 Gated runners}

    Both runners advance until no active process remains, stepping only
    permitted pids; when every active process is stalled they {!tick}
    until one is released, and they stop early if every active process
    is frozen forever (a {!Halt_all_but} whose chosen process has
    finished).  [max_events] bounds the steps of the call itself.  Under
    [gate []] they are the plain round-robin and random runners. *)

val run_round_robin : ?max_events:int -> Scheduler.t -> gate -> unit
val run_random : ?max_events:int -> seed:int -> Scheduler.t -> gate -> unit

(** {1 Exhaustive exploration under a plan}

    {!Explore.walk} over [instrument plan make_body], gated: at each node
    the gate ticks through stalls until some active process is
    permitted, and only permitted processes step there, in ascending
    pid order; a node where every active process is frozen forever ends
    a maximal execution.  The gate's point is the walk's node state, a
    function of the schedule alone, so a restarted sibling resumes it.
    The restarts, the re-entry rule, the replay equality, the limits
    and the run lifecycle are {!Explore.walk}'s.  When the plan has no
    scheduler-level faults, {!Dpor.run} over [instrument plan make_body]
    explores the same program at far fewer schedules. *)

val explore :
  ?max_schedules:int ->
  ?max_events:int ->
  Session.t ->
  n:int ->
  make_body:(int -> unit -> unit) ->
  plan:plan ->
  on_complete:(Trace.t -> bool) ->
  unit ->
  Explore.stats

(** {1 Plan enumeration and minimization} *)

val single_crash_plans : counts:int array -> plan list
(** Every 1-fault crash plan for processes whose solo step counts are
    [counts]: [Crash {pid; after}] for each pid and each
    [0 <= after < counts.(pid)].  (Crashing at or beyond the solo count
    is the empty fault.) *)

val single_stall_plans :
  n:int -> max_point:int -> points:int -> plan list
(** Every 1-fault stall plan [Stall {pid; at; points}] with
    [0 <= at <= max_point]. *)

val minimize :
  ?rounds:int -> test:(plan -> bool) -> plan -> plan
(** Greedy plan shrinking: repeatedly drop whole faults and shrink
    numeric parameters ([after]/[at]/[points]/[nth]) while [test] keeps
    holding.  [test] must hold of the initial plan ([Invalid_argument]
    otherwise).  The result is locally minimal under these moves. *)
