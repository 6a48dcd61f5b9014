(** A snapshot from an f-array whose aggregate is tuple concatenation: the
    root holds the whole array, so Scan is a single read and Update is
    O(log N), from read/write/CAS — the optimal point of Theorem 1's
    tradeoff, standing in for the restricted-use snapshot of Aspnes et
    al. (PODC 2012); see DESIGN.md for the substitution argument.
    Sequence stamps keep node values unique, making the CAS propagation
    ABA-free.  It is one {!Boxed.Farray}: build it inside
    {!Boxed.Raw.with_memory}. *)

type t

val create : n:int -> unit -> t

val update : t -> pid:int -> int -> unit
(** One read of the caller's own leaf (its last sequence number), then
    an f-array update. *)

val add : t -> pid:int -> int -> unit

val scan : t -> int array
(** One shared-memory event. *)
