(** The tradeoff-dial max register: {!Dial_counter}'s block geometry
    with a max aggregate.  ReadMax collects the f block roots in
    Theta(f) steps; WriteMax propagates only inside its own block in
    O(log(N/f)) steps ({!Treeprim.Dial}). *)

type t

val create : n:int -> dial:Treeprim.Dial.t -> unit -> t

val read_max : t -> int
(** Max over the f block roots: Theta(f) events; 0 if nothing was
    written. *)

val write_max : t -> pid:int -> int -> unit
(** Write a value [>= 0]: leaf write + in-block propagation,
    O(log(N/f)) events (skipped when the caller's leaf already holds
    a larger value). *)

val write_max_metered : t -> metrics:Obs.Metrics.t -> pid:int -> int -> unit
(** The body of [write_max], with refresh rounds and CAS outcomes
    recorded under shard [pid] once per write; same steps, one branch
    with {!Obs.Metrics.disabled} (which [write_max] passes). *)
