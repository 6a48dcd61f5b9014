(** Order statistics and trend of a run's samples. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

val summarize : float array -> summary
(** Median and quartiles as Python's [statistics.quantiles(xs, n=4)]
    (the default "exclusive" method) gives them; a single sample is its
    own median and quartiles.  Raises [Invalid_argument] when empty. *)

val median : float array -> float

val quantile : float array -> float -> float
(** [quantile xs p], [p] in [0, 1]: linear interpolation between the
    order statistics around rank [p * (n - 1)]. *)

val spread_pct : summary -> float
(** (q3 - q1) / |median|, in percent; 0 when the median is 0. *)

val trend_pct : float array -> float
(** The least-squares slope over the sample index, times the index span,
    as a percentage of the median: how far the samples drifted from the
    first to the last. *)

val hist_count : int array -> int
(** Samples in a histogram whose bucket [i] counts the value [i]. *)

val hist_percentile : int array -> float -> float
(** The nearest-rank [p]-th percentile of such a histogram; nan when it
    is empty. *)
