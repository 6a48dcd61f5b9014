(** The closed loop of the native workloads (and of the simulated
    gauge that model-check times operations on).

    A batch is 64 homogeneous operations: all reads or all updates.
    With a counter, a batch is 32 register operations then 32 counter
    operations, so every batch costs the same mix.  The closure handed
    to the harness ignores the iteration base and draws from the
    workload's {!Stream}, whose per-domain cursors carry across passes.

    Every read is checked for monotonicity against the domain's previous
    read; every update batch ends with a read checking that the domain's
    own largest write (and its increments) are visible; {!final_check}
    checks the quiescent totals. *)

type shape = {
  domains : int;
  read_share : float;  (** share of read batches where domains mix *)
  stale_share : float;
  monitor : bool;  (** domain 0 only reads, domain 1 only updates *)
  counter : bool;  (** pair the register with a counter *)
  reg_spans : Spans.name * Spans.name;  (** read and update span names *)
}

type mode =
  | Plain   (** the measured loop *)
  | Timed   (** plus a clock pair per batch, kept as a latency sample *)
  | Traced  (** plus spans, and the metered entry points *)

val hist_size : int
(** Buckets of a latency histogram. *)

(** What a run needs of a workload's loop, whichever structures are
    behind it. *)
type loop = {
  domains : int;
  stream : Stream.t;
  op : int -> int -> unit;
      (** One batch by domain [d], for {!Subjects.run_batched}; the
          iteration base is ignored. *)
  set_mode : mode -> unit;
  set_trace : Spans.t -> parent:int -> unit;
      (** The span buffers and the current trial span, for [Traced]. *)
  take_latencies : read:bool -> int array;
      (** The histogram of per-batch nanoseconds recorded in [Timed] mode
          since the last call, over all domains: bucket [i] counts
          batches that took [i] ns (the last bucket also counts slower
          ones).  Clears the recording. *)
  final_check : unit -> unit;
}

module Make (M : Subjects.MAXREG) (C : Subjects.COUNTER) : sig
  type t

  val create :
    shape ->
    seed:int ->
    salt:int ->
    n:int ->
    reg_metrics:Subjects.metrics ->
    cnt_metrics:Subjects.metrics ->
    t
  (** The structures, built for [n] processes with their metrics
      handles, and the seeded stream.  Values start at [n], so every
      Algorithm A write takes the per-process leaf. *)

  val register : t -> M.t
  val loop : t -> loop
end
