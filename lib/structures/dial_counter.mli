(** The tradeoff-dial counter: Theorem 1's frontier as one block-
    structured construction.  A dial point f ({!Treeprim.Dial}) groups
    the N per-process leaves into f blocks of ceil(N/f) leaves, each a
    sum f-array: CounterRead collects the f block roots in Theta(f)
    steps, CounterIncrement propagates only inside its own block in
    O(log(N/f)) steps.  [F_one] coincides with {!Farray_counter},
    [F_n] with {!Naive_counter}.  In the unboxed compile read and
    increment allocate nothing. *)

type t

val create : n:int -> dial:Treeprim.Dial.t -> unit -> t

val increment : t -> pid:int -> unit
(** [add t ~pid 1]: leaf bump + in-block propagation, O(log(N/f)). *)

val increment_metered : t -> metrics:Obs.Metrics.t -> pid:int -> unit
(** [add_metered t ~metrics ~pid 1]. *)

val add : t -> pid:int -> int -> unit
(** [add t ~pid k]: absorb a batch of [k] at the caller's own leaf
    with one in-block propagation (the combining layer's apply). *)

val add_metered : t -> metrics:Obs.Metrics.t -> pid:int -> int -> unit
(** The body of [add], with refresh rounds and CAS outcomes recorded
    under shard [pid] once per update; same steps, one branch with
    {!Obs.Metrics.disabled} (which [add] passes). *)

val read : t -> int
(** Collect of the f block roots: Theta(f) events. *)
