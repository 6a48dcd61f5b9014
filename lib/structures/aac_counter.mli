(** The Aspnes–Attiya–Censor counter (JACM 2012), from reads and writes
    only: a complete tree over single-writer leaves whose internal nodes
    are {!Aac_maxreg} bounded max registers holding subtree sums.

    With B-bounded registers (B = maximum total increments):
    CounterRead O(log B), CounterIncrement O(log N · log B) — i.e.
    O(log N) and O(log² N) for polynomially many increments, the point the
    paper's Theorem 1 trades against.  In the unboxed compile the leaves
    are padded and neither operation allocates. *)

type t

val create : n:int -> bound:int -> unit -> t
(** [n] processes, at most [bound] total increments. *)

val increment : t -> pid:int -> unit
(** For [n >= 2], run alone, an increment past [bound] bumps its leaf,
    then raises [Invalid_argument] where a max register refuses the sum. *)

val read : t -> int
