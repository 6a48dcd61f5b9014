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

val enabled_would_change : t -> int -> bool
(** Would the enabled event change its object's value if applied now? *)

val is_active : t -> int -> bool
val is_finished : t -> int -> bool
val active_pids : t -> int list
val steps_of : t -> int -> int
val n_processes : t -> int
val event_count : t -> int

val entry_count : t -> int
(** Trace entries recorded so far: events plus Invoke/Return
    annotations.  Inspection ({!enabled}, {!is_active}, {!active_pids})
    issues no event, but starting a process whose first operation issues
    none records that operation's annotations; comparing [entry_count]
    around an inspection tells whether it did. *)

val current_trace : t -> Trace.t
(** Copy of the execution so far; the run remains in progress. *)

(** {1 Advancing} *)

val step : t -> int -> Event.t
(** Apply the enabled event of the given process (one step), returning it.
    Raises [Invalid_argument] if the process is not active. *)

val erase : t -> int -> unit
(** Discard a process: its continuation is unwound and it takes no further
    steps.  (Erasing retroactively — removing events already issued — is
    done by replaying a filtered schedule; see {!Replay}.) *)

val finish : t -> Trace.t
(** End the run: unwind all still-active processes and return the
    execution. *)

(** {1 Canned policies} *)

val run_round_robin : ?max_events:int -> t -> unit
val run_solo : ?max_events:int -> t -> int -> unit
(** Run one process alone until it completes (obstruction-freedom). *)

val run_random : ?max_events:int -> seed:int -> t -> unit
val run_schedule : t -> int list -> unit
(** Apply steps in exactly the given pid order. *)

val run_policy : ?max_events:int -> t -> (t -> int option) -> unit
(** Repeatedly step the pid chosen by the policy until it returns [None]. *)
