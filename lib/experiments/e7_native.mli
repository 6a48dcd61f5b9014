(** E7 — the practical payoff of O(1) reads on real parallel hardware,
    and the repository's one native sweep: every structure
    {!Harness.Instances} builds natively, boxed and unboxed, plus
    Algorithm A under {!Harness.Adaptive.Alg_a}, each timed through an
    instance record by {!Harness.Throughput.run_batched} at a
    write-only, a half-read and a read-mostly share, on one domain and
    on [recommended_domains ~floor:2 ~cap:4]. *)

val batch : int
(** Operations per harness call: 64. *)

val maxreg_op :
  Maxreg.Max_register.instance -> domains:int -> read_pct:int ->
  int -> int -> unit
(** The timed loop of a max-register cell, as {!Harness.Throughput}'s
    [op d i]: [batch] operations of the [read_pct] mix on domain [d].
    Domain [d] writes [v * domains + d] for its own cursor [v = 1, 2,
    ...], which carries from call to call and ignores the base [i]: so
    every write is larger than each value [d] wrote before, on every
    pass, though each pass restarts the base at 0. *)

val counter_op :
  Counters.Counter.instance -> read_pct:int -> int -> int -> unit
(** The same loop over a counter: a read or an increment by [d]. *)

val time :
  domains:int -> seconds:float -> trials:int -> (int -> int -> unit) -> float
(** One discarded warmup pass, then [trials] passes (an odd count) of
    [seconds] each, over the same op; the median rate in Mops/s. *)

val columns : unit -> (string * string * string) list
(** (structure, impl, backend) of every column, in table order: each
    max register of {!Harness.Instances.all_maxregs} and each counter
    the registry compiles unboxed, boxed and unboxed where the registry
    builds it, and Algorithm A also pinned to combining
    ({!Harness.Adaptive.Alg_a.update_combining}) and adaptive
    ({!Harness.Adaptive.Alg_a.write_max}). *)

val run : seconds:float -> trials:int -> unit -> string
(** The rendered table, naming the host it ran on. *)
