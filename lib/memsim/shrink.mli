(** Delta-debugging of violating schedules: shrink a counterexample found
    by stress testing or exploration down to a locally-minimal replayable
    schedule (no single event can be dropped without losing the
    violation). *)

val replay :
  Session.t -> n:int -> make_body:(int -> unit -> unit) -> int list -> Trace.t
(** Replay a schedule from the initial configuration against fresh bodies,
    {e leniently}: entries whose process is inactive or out of range are
    skipped, so schedules mangled by shrinking still denote executions.
    Returns the completed trace.  No run is left open on the session,
    also when a body raises. *)

val effective :
  Session.t ->
  n:int ->
  make_body:(int -> unit -> unit) ->
  int list ->
  int list
(** The steps {!replay} actually executes for a schedule (lenient skips
    removed). *)

val minimize : ?max_tests:int -> test:(int list -> bool) -> int list -> int list
(** [minimize ~test schedule] returns a locally-minimal sub-schedule still
    satisfying [test] (ddmin-style window removal, then single-event
    removal to a fixpoint).  [test] must hold of [schedule] itself
    ([Invalid_argument] otherwise).  At most [max_tests] (default 10_000)
    candidate evaluations; if the budget runs out the best schedule so far
    is returned (possibly not 1-minimal). *)

val counterexample :
  ?max_tests:int ->
  Session.t ->
  n:int ->
  make_body:(int -> unit -> unit) ->
  check:(Trace.t -> bool) ->
  int list ->
  int list * Trace.t
(** [counterexample session ~n ~make_body ~check schedule] minimizes a
    schedule whose replay fails [check], returning the minimized schedule
    (normalized to exactly the steps executed) and its trace. *)
