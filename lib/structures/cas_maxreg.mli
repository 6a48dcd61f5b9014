(** Baseline max register: one register updated by a CAS retry loop.
    ReadMax is O(1); WriteMax is lock-free but {e not} wait-free — under
    the Theorem 3 adversary a single WriteMax is stretched to Theta(K)
    steps (see EXPERIMENTS.md E5), which is what Algorithm A's tree
    structure avoids.  In the unboxed compile the register is padded and
    no operation allocates, failed CAS attempts included. *)

type t

val create : unit -> t
val read_max : t -> int
val write_max : t -> pid:int -> int -> unit

val write_once : t -> int -> int
(** One attempt of the retry loop, for the flat-combining fast path:
    [0] — value at or below the current maximum (eliminated; the
    write linearizes at the read), [1] — CAS installed the value,
    [2] — CAS lost a race (route to the combining arena).  Does not
    validate the value: callers on the hot path check once. *)

val write_max_metered : t -> metrics:Obs.Metrics.t -> pid:int -> int -> unit
(** The body of [write_max], which passes {!Obs.Metrics.disabled}: every
    CAS attempt and failure is recorded under shard [pid] once the retry
    loop returns — the retry count the Theorem 3 adversary stretches.
    Same steps; one branch, no allocation, when disabled. *)
