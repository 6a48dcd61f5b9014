(** One run of one workload: set-up, warmup, rounds of trials, checks.

    An untraced run reports the end-to-end metrics; a traced run adds
    traced trials beside the untraced ones (their ratio is the tracing
    overhead), the layer probes, and the per-layer metrics, and writes a
    Chrome trace.  Each round first times a fixed integer loop, so host
    drift shows beside the numbers it would move. *)

type workload = Gauge_solo | Gauge_monitor | Writers_race | Model_check

val workloads : (string * workload) list
(** By the names [BENCHMARK.json] gives them. *)

val shape : workload -> Native.shape
(** A native workload's shape; model-check's is that of the simulated
    gauge it times single operations on. *)

type result = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  end_to_end : (string * float array) list;
      (** {!Metric.end_to_end}, in order, as samples: [setup_s] one per
          timed set-up (16 per round), the rest one per trial window (6
          per round; model-check's rates one per chunk of 1024 explored
          classes) *)
  per_layer : (string * float) list;
      (** {!Metric.per_layer}, in order; empty when untraced *)
  ref_loop_ms : float array;  (** per round *)
  checks : int;
  failures : int;
  trend_pct : float;  (** of [ops_per_s] over its samples *)
  iqr_pct : float;
}

val run :
  workload ->
  seed:int ->
  seconds:float ->
  traced:bool ->
  quick:bool ->
  trace_out:string option ->
  result
(** [seconds] is the measured time, split over the rounds.  [quick]
    shrinks the set-up repetitions, warmup, rounds and probes to a smoke
    test.  A traced run writes its Chrome trace to [trace_out]. *)

val stationary : result -> bool
(** Whether the throughput trend over the run stays within its spread. *)

val host_drift : result -> bool
(** Whether the reference loop's slowest round took over 1.10 times its
    fastest. *)
