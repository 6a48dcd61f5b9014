(** Small descriptive statistics over measurement samples.

    Non-finite samples are dropped before summarizing; an
    effectively-empty input yields the all-zero summary (never
    [infinity]/[neg_infinity] extremes). *)

type summary = {
  count : int;      (** finite samples summarized *)
  mean : float;
  stddev : float;   (** {e sample} stddev (Bessel-corrected, n-1); 0 when n < 2 *)
  min : float;
  max : float;
}

val summarize : float list -> summary
val summarize_ints : int list -> summary
