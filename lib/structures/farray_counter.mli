(** Jayanti's counter from an f-array with f = sum: CounterRead O(1),
    CounterIncrement O(log N), from read/write/CAS.  Theorem 1 of the
    paper shows this read/update point is optimal.  In the unboxed
    compile every tree node is a padded register and read and increment
    allocate nothing. *)

type t

val create : n:int -> unit -> t

val increment : t -> pid:int -> unit
(** [add t ~pid 1]. *)

val increment_metered : t -> metrics:Obs.Metrics.t -> pid:int -> unit
(** [add_metered t ~metrics ~pid 1]. *)

val add : t -> pid:int -> int -> unit
(** [add t ~pid k] adds [k] to the caller's own leaf with one update
    (one propagation for all [k]); the counter value is the sum over
    leaves. *)

val add_metered : t -> metrics:Obs.Metrics.t -> pid:int -> int -> unit
(** The body of [add], with propagation refresh rounds and CAS outcomes
    recorded under shard [pid] once per update; same steps, one branch
    with {!Obs.Metrics.disabled} (which [add] passes). *)

val read : t -> int
(** One shared-memory event. *)
