(** The Aspnes–Attiya–Censor bounded max register (JACM 2012), from reads
    and writes only: a tournament tree of switch bits over the value range.
    Both ReadMax and WriteMax take O(log bound) steps — the read-side
    contrast to {!Algorithm_a}, and the paper's Theorem 4 shows the
    write side cannot be brought below Omega(log log min(N,M)) while
    keeping reads optimal.  The tree is built whole at [create], one
    unpadded switch per value of the bound; in the unboxed compile
    neither operation allocates. *)

type t

val create : bound:int -> unit -> t
(** A [bound]-bounded max register: holds values in [0, bound). *)

val read_max : t -> int
(** O(log bound) steps. *)

val write_max : t -> pid:int -> int -> unit
(** O(log bound) steps; [pid] is ignored (kept for interface
    uniformity).  A value outside [0, bound) raises [Invalid_argument]
    before the first step. *)
