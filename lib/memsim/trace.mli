(** Executions: sequences of shared-memory events plus operation-boundary
    annotations (which are local computation, not steps). *)

type entry =
  | Mem of Event.t
  | Invoke of { pid : int; op : string; arg : Simval.t }
  | Return of { pid : int; op : string; result : Simval.t }

type t

(** {1 Building} *)

type builder

val builder : unit -> builder

val add_mem :
  builder ->
  pid:int ->
  obj:int ->
  obj_name:string ->
  prim:Event.prim ->
  response:Event.response ->
  before:Simval.t ->
  after:Simval.t ->
  Event.t

val add_invoke : builder -> pid:int -> op:string -> arg:Simval.t -> unit
val add_return : builder -> pid:int -> op:string -> result:Simval.t -> unit

val event_count : builder -> int

val length : builder -> int
(** Number of entries so far, events and annotations alike. *)

val get : builder -> int -> entry
(** [get b i] is the [i]th entry added to [b] (0-based). *)

val prefix : builder -> int -> builder
(** [prefix b len] is a new builder holding the first [len] entries of
    [b].  The entries are shared, not copied (they are immutable), and
    later additions to either builder do not reach the other. *)

(** {2 Per-process responses}

    A builder keeps each process's events in order, so the response to
    a process's [k]th event is found by index. *)

val events_by : builder -> int -> int
(** [events_by b pid]: how many events [pid] has issued in [b]. *)

val processes : builder -> int
(** One past the largest pid that has had events in [b] (0 if none):
    every pid at or above it has none. *)

val response : builder -> int -> int -> Event.response
(** [response b pid k] is the response to [pid]'s [k]th event (0-based,
    [k < events_by b pid]). *)

(** {2 Rewinding}

    A builder can be cut back to one of its points, and grown again from
    there: {!Scheduler.restart} does so to reuse the trace of the run
    that just finished.  Each entry remembers how many rewinds the builder
    had undergone when it was added, so a point taken before a rewind
    that cut it off is recognised. *)

val rewinds : builder -> int
(** How many times [b] has been rewound. *)

val intact : builder -> len:int -> rewinds:int -> bool
(** Are the first [len] entries of [b] still the ones it held when
    {!rewinds} was [rewinds]?  False once a later rewind went below
    [len] (and more entries were added) or left fewer than [len]. *)

val rewind : builder -> int -> undo:(Event.t -> unit) -> unit
(** [rewind b len ~undo] drops every entry past the first [len], calling
    [undo] on each dropped event from the last back, and counts one
    rewind.  Entries added afterwards overwrite the dropped ones. *)

val finish : builder -> t

(** {1 Queries} *)

val entries : t -> entry array

val events : t -> Event.t array
(** The shared-memory events only, in execution order. *)

val events_of : t -> int -> Event.t array
(** Events issued by one process. *)

val step_count : t -> int -> int
(** Number of events issued by one process (its step count). *)

val schedule : t -> int list
(** The pid of each event, in order.  Replaying a schedule against fresh
    deterministic processes reconstructs the execution. *)

val pids : t -> int list
(** Processes that issued at least one event, ascending. *)

val pp_entry : entry Fmt.t
val pp : t Fmt.t
