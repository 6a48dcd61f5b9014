(** E10 — where the tradeoff's crossovers fall: (a) the read share above
    which the f-array counter's O(1) reads beat the naive counter's O(1)
    increments (exact step counts), and (b) the native-throughput
    crossover between Algorithm A and the AAC register as the read share
    sweeps 0..99%, over writes that cycle through 256 values (so nearly
    all of them repeat a value already written). *)

val run : ?seconds:float -> unit -> string
(** Rendered tables; [seconds] per measured throughput cell (default
    0.25). *)
