(** Every binding of the benchmark suite to the repository's libraries.

    The rest of [bench/suite] reaches the structures, the harness, the
    observability layer and the model checker only through this module,
    so a refactor of those libraries changes this one file and leaves the
    workloads, the statistics and the report untouched.  It binds to the
    structure modules, {!Harness.Adaptive}, {!Harness.Throughput},
    {!Harness.Annotate}, {!Smem.Unboxed_memory.Padded},
    {!Smem.Counting_memory}, [Obs], [Memsim], [Linearize], and the
    registry's [_sim] and [_over] constructors — never to
    [Harness.Combining] or the [_native_*] constructor family. *)

(** {1 Clock and harness} *)

external clock : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
  [@@noalloc]
(** The monotonic clock in nanoseconds (bechamel's stub, declared here so
    a reading allocates nothing at the call site). *)

val cpu_seconds : unit -> float
(** CPU time the process has used so far, over all its threads. *)

val batch : int
(** Operations per batched call: 64.  One clock pair costs about as much
    as ten O(1) reads, so latencies and spans are taken per batch. *)

val run_batched : domains:int -> seconds:float -> (int -> int -> unit) -> float
(** {!Harness.Throughput.run_batched} with [batch] operations per call:
    operations per measured second, summed over [domains]. *)

val recommended_domains : unit -> int

(** {1 Observability} *)

module Json = Obs.Json_out

type metrics
(** An {!Obs.Metrics} handle: live, or the shared disabled one. *)

val live_metrics : domains:int -> metrics
val no_metrics : metrics

type tally = {
  cas_attempts : int;
  cas_failures : int;
  refresh_rounds : int;
  helps : int;
}

val tally : metrics -> tally

(** {1 Structures under test} *)

module type MAXREG = sig
  type t

  val create : metrics:metrics -> n:int -> domains:int -> t
  (** [metrics] feeds {!write_max_metered} (and, for the adaptive
      register, the dispatcher); {!no_metrics} builds the plain object. *)

  val read_max : t -> int
  val write_max : t -> pid:int -> int -> unit

  val write_max_metered : t -> pid:int -> int -> unit
  (** [write_max] recording into the handle given to {!create}. *)
end

module type COUNTER = sig
  type t

  val create : metrics:metrics -> n:int -> t
  val read : t -> int
  val increment : t -> pid:int -> unit
  val increment_metered : t -> pid:int -> unit
end

module Alg_a : MAXREG
(** {!Maxreg.Algorithm_a.Unboxed}. *)

module Farray : COUNTER
(** {!Counters.Farray_counter.Unboxed}. *)

module Race : sig
  include MAXREG
  (** {!Harness.Adaptive.Alg_a} through its per-op [write_max] /
      [read_max], as an oblivious caller uses it.  A live handle builds
      it with [create_metered] (CAS-rate dispatch and counters);
      [write_max_metered] is [write_max]. *)

  type arena = {
    eliminations : int;
    combined_ops : int;
    batches : int;
    batch_max : int;
    locks : int;
  }

  val arena : t -> arena
  (** {!Smem.Combine.stats} of the register's arena. *)

  type dispatch = { epochs : int; flips : int; combining_pct : float }

  val dispatch : t -> dispatch
  (** {!Harness.Adaptive.Alg_a.report}. *)
end

module Sim_alg_a : MAXREG
(** Algorithm A's boxed functor over a private {!Memsim} session, run in
    direct mode: the code the model checker explores, one operation at a
    time. *)

module Sim_farray : COUNTER
(** The f-array counter's boxed functor, likewise. *)

(** {1 Model checking} *)

module Model : sig
  type config =
    | Alg_a_w1_w3_r  (** Algorithm A, n = 3: write 1, write 3, read *)
    | Farray_i_i_r   (** f-array counter, n = 3: increment, increment, read *)

  val configs : config list

  val pinned_classes : config -> int
  (** The trace-class count DPOR must find (784 and 32,336). *)

  type t
  (** The two DPOR sessions, each with its annotated simulated object. *)

  val create : unit -> t

  type explored = {
    classes : int;
    sleep_blocked : int;
    events : int;  (** shared-memory events over the complete classes *)
    non_linearizable : int;
    truncated : bool;
  }

  val explore : t -> config -> check:((unit -> bool) -> bool) -> explored
  (** One exhaustive {!Memsim.Dpor.run} of [config].  Each complete class
      is checked with {!Linearize.Checker.check_trace}; [check] receives
      that check as a thunk (so the caller can time it) and returns its
      verdict. *)
end

(** {1 Layer probes}

    Each probe returns a fresh batched operation ([batch] calls into one
    layer's public function per invocation) for {!run_batched}. *)

module Probe : sig
  val empty : unit -> int -> int -> unit
  (** The harness floor: a loop of [batch] opaque no-ops. *)

  val smem_read : unit -> int -> int -> unit
  val smem_write : unit -> int -> int -> unit
  val smem_cas : unit -> int -> int -> unit

  val smem_cas_shared : unit -> int -> int -> unit
  (** CAS attempts by every caller on one shared padded cell (a failed
      attempt re-reads the cell). *)

  val alg_a_read : unit -> int -> int -> unit
  val alg_a_update : unit -> int -> int -> unit

  val alg_a_update_disabled : unit -> int -> int -> unit
  (** [write_max_metered] with the disabled handle. *)

  val farray_read : unit -> int -> int -> unit
  val farray_update : unit -> int -> int -> unit

  type steps = { reads : float; writes : float; cas : float }

  val steps :
    [ `Alg_a_read | `Alg_a_update | `Farray_read | `Farray_update ] -> steps
  (** Exact solo shared-memory steps per operation at n = 64, by kind,
      counted by {!Smem.Counting_memory} over the simulated backend
      (updates: the mean over 64 fresh operations). *)
end
