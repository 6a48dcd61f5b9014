(** Jayanti's counter from an f-array with f = sum: CounterRead O(1),
    CounterIncrement O(log N), from read/write/CAS.  Theorem 1 of the
    paper shows this read/update point is optimal.  In the unboxed
    compile every tree node is a padded register and read and increment
    allocate nothing. *)

type t

val create : n:int -> unit -> t

val increment : t -> pid:int -> unit
(** Bump the caller's own leaf and propagate; the counter value is the
    sum over leaves. *)

val increment_metered : t -> metrics:Obs.Metrics.t -> pid:int -> unit
(** The body of [increment], with propagation refresh rounds and CAS
    outcomes recorded under shard [pid] once per update; same steps,
    one branch with {!Obs.Metrics.disabled} (which [increment]
    passes). *)

val read : t -> int
(** One shared-memory event. *)
