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
