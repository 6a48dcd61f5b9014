(** The domain-scaling benchmark behind [bin/bench.exe]: max registers
    and counters, boxed (Simval Atomic) and unboxed (padded int Atomic),
    plus Algorithm A contention-adaptive ({!Harness.Adaptive.Alg_a},
    which flips between the plain and the {!Smem.Combine} flat-combining
    update path at epoch boundaries) and flat-combining (the adaptive
    instance pinned to its combining path) — swept over domain counts
    and read shares.  The combining and adaptive columns exist exactly
    where {!Harness.Instances} builds those backends.
    All cells are built up front and their throughput trials run in
    interleaved rounds so host drift lands evenly; rows are medians with
    a relative-stddev noise figure.  Latency percentiles and contention
    metrics come from separate metered passes so the timed loops stay
    unperturbed. *)

type config

val config :
  ?quick:bool ->
  ?max_domains:int ->
  ?seconds:float ->
  ?trials:int ->
  ?read_shares:int list ->
  unit ->
  config
(** [quick] (default false) shrinks seconds/trials to CI-smoke values;
    [max_domains] (default 4) bounds the 1,2,4,.. domain sweep;
    [seconds]/[trials] override the per-trial duration and trial count;
    [read_shares] (default [[0; 50; 90; 99]]) is the read-percentage
    grid.  Raises [Invalid_argument] (via {!check_sweep}) on bad
    inputs. *)

val check_sweep :
  max_domains:int -> seconds:float -> trials:int -> read_shares:int list -> unit
(** Raises [Invalid_argument] unless [max_domains >= 1], [seconds] is
    finite and positive, [trials >= 1] and [read_shares] is a non-empty
    list of distinct shares in 0..100.  Shared with
    {!Bench_dial.config}. *)

type row

val sweep : ?progress:(string -> unit) -> config -> row list
(** Run the full sweep; [progress] receives oversubscription warnings
    (domain counts beyond {!Harness.Throughput.recommended_domains}),
    one line per trial round, and a line per (target, backend) as the
    latency/metrics epilogue starts. *)

val batch : int
(** Operations per harness call in every timed loop. *)

val read_pattern : read_pct:int -> bool array
(** A cell's operation mix over 128 slots, [true] for a read: the read
    share quantized to 1/128 and interleaved evenly. *)

val median : float list -> float
(** Median of the finite members (NaN trials are dropped; the middle
    pair is averaged on even counts).  Exposed for the regression tests
    pinning exactly that behaviour. *)

val rsd : float list -> float
(** Relative standard deviation (sample stddev / mean) of the finite
    members; 0 for fewer than two samples or a non-positive mean.
    Rows above 0.25 are flagged in the table. *)

val table : row list -> string
(** Rendered throughput/latency table. *)

val to_json : cfg:config -> row list -> Obs.Json_out.t
(** The machine-readable trajectory (schema "bench-native/v4": adds the
    adaptive backend and its per-row [epoch_flips] /
    [time_in_combining_pct] fields to v3's combining backend, per-row
    [rsd]/[oversubscribed] and combiner metrics) consumed by
    EXPERIMENTS.md, the CI smoke job and {!Baseline}. *)
