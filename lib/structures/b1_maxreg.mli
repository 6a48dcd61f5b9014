(** The unbounded Aspnes–Attiya–Censor max register from reads and writes
    only: the bounded switch recursion applied to a Bentley–Yao B1-shaped
    partition of the unbounded value domain, giving WriteMax(v) O(log v)
    and ReadMax O(log vmax) with no bound fixed in advance.  The tree is
    materialized lazily (memory proportional to values written);
    materialization is domain-safe.  In the unboxed compile the
    steady-state recursion over forced nodes allocates nothing. *)

type t

val create : unit -> t

val read_max : t -> int
(** O(log vmax) steps, where vmax is the largest value written. *)

val write_max : t -> pid:int -> int -> unit
(** O(log v) steps; [pid] is ignored (kept for interface uniformity). *)
