(** The opposite end of the tradeoff: one single-writer register per
    process.  CounterIncrement O(1), CounterRead O(N).  Wait-free, reads
    and writes only.  In the unboxed compile every per-process register
    is padded to its own cache lines. *)

type t

val create : n:int -> unit -> t
val increment : t -> pid:int -> unit
(** Bump the caller's own cell (the counter value is the sum over
    cells). *)

val read : t -> int
