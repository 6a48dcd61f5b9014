(** N-component max vectors: m max registers readable atomically together
    (the shape [3]'s snapshot composes out of 2-component max arrays).
    From read/write/CAS via an f-array with componentwise-max aggregation:
    MaxScan O(1), MaxUpdate O(log n).  It is one {!Boxed.Farray}: build
    it inside {!Boxed.Raw.with_memory}. *)

type t

val create : n:int -> m:int -> unit -> t
(** [n] processes, [m] components, all initially 0. *)

val max_update : t -> pid:int -> component:int -> int -> unit
(** Raise one component to at least the given value. *)

val max_scan : t -> int array
(** Atomically read all component maxima: one shared-memory event. *)
