(** Jayanti's counter from an f-array with f = sum: CounterRead O(1),
    CounterIncrement O(log N), from read/write/CAS.  Theorem 1 of the
    paper shows this read/update point is optimal.  In the unboxed
    compile every tree node is a padded register and read and increment
    allocate nothing. *)

type t

val create : n:int -> unit -> t
val increment : t -> pid:int -> unit

val increment_metered : t -> metrics:Obs.Metrics.t -> pid:int -> unit
(** [increment] with propagation refresh rounds and CAS outcomes
    recorded under shard [pid]; same steps, free with
    {!Obs.Metrics.disabled}. *)

val add : t -> pid:int -> int -> unit
(** [add t ~pid k] adds [k] to the caller's own leaf with one update
    (one propagation for the whole batch) — the combining layer's
    apply: the counter value is the sum over leaves, so the combiner
    absorbs a batch at its own leaf without breaking the single-writer
    discipline. *)

val add_metered : t -> metrics:Obs.Metrics.t -> pid:int -> int -> unit

val read : t -> int
(** One shared-memory event. *)
