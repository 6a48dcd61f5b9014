(** The set of base objects of one simulated implementation instance.

    A store remembers the initial value of every object, so that a complete
    execution can be re-run from the initial configuration ({!reset}) — the
    mechanism behind erase-and-replay (Lemma 2 of the paper). *)

type t

val create : unit -> t

val alloc : t -> name:string -> Simval.t -> int
(** Allocate a fresh base object with the given initial value, returning its
    id.  Allocation models the initial configuration and is not an event. *)

val size : t -> int
val get : t -> int -> Simval.t
val set : t -> int -> Simval.t -> unit
val name : t -> int -> string

val reset : t -> unit
(** Restore every object to its initial value. *)

val mutations : t -> int
(** A count bumped by every change to the store: {!set}, a successful
    {!cas} (so every {!apply} of a write or a successful CAS), {!reset}
    and {!alloc}.  Equal counts at two moments mean the store did not
    change in between. *)

val cas : t -> int -> expected:Simval.t -> desired:Simval.t -> bool
(** Compare-and-swap: if the object's value equals [expected]
    ({!Simval.equal}), set it to [desired] and return [true]. *)

val apply : t -> int -> Event.prim -> Event.response
(** Atomically apply a primitive, returning its response. *)

val would_change : t -> int -> Event.prim -> bool
(** Would applying this primitive now change the object's value?  (I.e. is
    the enabled event non-trivial in the sense of Definition 1?) *)
