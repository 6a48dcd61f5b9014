(** A session: one store of base objects plus the run context of the
    scheduler currently executing on it, if any.

    Operations performed while a scheduler run is active become effects that
    the scheduler intercepts (one scheduling point per shared-memory event).
    Operations performed outside a run are applied immediately ("direct
    mode") and counted in {!direct_steps} — this is how sequential
    step-complexity measurements are taken. *)

type t

type _ Effect.t +=
  | Mem_op : int * Event.prim -> Event.response Effect.t
        (** Performed by {!read}, {!write} and {!cas} during a run: one
            event on the object. *)

exception Erased
(** Raised into a process continuation to discard it. *)

val create : unit -> t
val store : t -> Store.t

val alloc : t -> name:string -> Simval.t -> int
(** Allocate a base object (initial configuration; not an event). *)

val current_pid : t -> int
(** Pid of the process whose code is currently executing, or [-1]. *)

val reset_steps : t -> unit
val direct_steps : t -> int
(** Number of events applied in direct mode since the last reset. *)

(** {1 The three primitives}

    One read, write or CAS of an object: the only shared-memory events.
    Inside a run each performs {!Mem_op} with the corresponding
    primitive, so the scheduler (and any handler a body installs) sees
    one event.  Outside a run each is applied to the store and counted
    in {!direct_steps}, building no {!Event.prim} and no
    {!Event.response}.  {!Smem.Sim_memory} is written over these. *)

val read : t -> int -> Simval.t
val write : t -> int -> Simval.t -> unit

val cas : t -> int -> expected:Simval.t -> desired:Simval.t -> bool
(** Compare-and-swap with {!Simval.equal} as the comparison. *)

val annotate_invoke : t -> op:string -> arg:Simval.t -> unit
(** Record an operation invocation.  Buffered until the process's next
    event (or its return), so operation intervals start at the first step
    rather than when the body first runs — sound, because the adversary
    may delay a process between its invocation and its first step. *)

val annotate_return : t -> op:string -> result:Simval.t -> unit

(**/**)

(* Fields below are manipulated by {!Scheduler}; not for general use. *)

val clear_pending_invokes : t -> unit
(** Drop buffered invocations (called at run boundaries: an invocation
    whose process never took a step leaves no record).  Invocations are
    buffered in one slot per pid; this call, {!flush_invokes} and
    {!drop_invokes} cost one test when none is buffered. *)

val flush_invokes : t -> int -> unit
(** Move a process's buffered invocation annotations into the trace (the
    scheduler calls this just before recording one of its events). *)

val drop_invokes : t -> int -> unit
(** Discard a process's buffered invocation annotations (the scheduler
    calls this when it answers one of the process's events from a trace
    that already holds them). *)

val set_fast_forward : t -> bool -> unit
(** While set, {!annotate_return} records nothing and discards the
    process's buffered invocations instead: the scheduler is re-running
    the process through a stretch its trace already holds. *)

val set_latest : t -> Trace.builder option -> unit
(** Remember the trace of the run that just finished, if that run began
    at the initial configuration (else [None]), with the store's
    {!Store.mutations} count now. *)

val latest : t -> Trace.builder option
(** The trace {!set_latest} remembered, provided the store has not
    changed since: the store then holds exactly what that trace's events
    left in it. *)

val set_in_run : t -> bool -> unit
val set_current_pid : t -> int -> unit
val set_trace : t -> Trace.builder option -> unit
val trace_builder : t -> Trace.builder option
