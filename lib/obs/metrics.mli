(** Per-domain sharded, cache-padded contention counters with a
    merge-on-read API and a free no-op mode.

    Recording writes only a padded cell owned by the recording domain (a
    load and an [Atomic.set] of a single-writer atomic, no CAS), so the
    instrumentation does not create the cache-line contention it
    measures.  The [Atomic.set] is itself an RMW: OCaml 5.1 defines it as
    [ignore (exchange r x)], a locked exchange once a second domain
    runs.  With the {!disabled} handle, every record call is one
    immediate-bool test: zero allocation, zero shared-memory traffic —
    pinned by a [Gc.minor_words] test and a CI overhead guard. *)

type counter =
  | Cas_attempt     (** CAS issued (refresh, retry loop, ...) *)
  | Cas_failure     (** CAS that returned [false] *)
  | Refresh_round   (** one refresh of one tree node during propagate *)
  | Help            (** operation completed by helping another's write *)
  | Op_read         (** high-level read operation *)
  | Op_update       (** high-level update operation *)
  | Fault_yield     (** injected preemption (yield/cpu_relax storm) *)
  | Fault_gc        (** injected GC pressure event *)
  | Fault_stall     (** injected domain stall *)

val all_counters : counter list
val counter_name : counter -> string

type t = private {
  enabled : bool;
  mask : int;
  shards : int Atomic.t array array;
}
(** Exposed as [private] for one reason only: without flambda a
    cross-library call to {!incr} cannot be inlined, so even the
    disabled handle would pay a function call per record site.  Hot
    record sites guard with [if metrics.enabled then ...] — an inlined
    field load — and only pay the call when recording is live.  Treat
    every field as an implementation detail; construct via {!create} /
    {!disabled} only. *)

val create : ?enabled:bool -> domains:int -> unit -> t
(** A handle with one padded shard per domain (rounded up to a power of
    two; domain indices beyond that fold onto existing shards). *)

val disabled : t
(** The shared no-op handle: {!incr}/{!add} test one immediate bool and
    return.  Use it as the default metrics argument of instrumented
    operations. *)

val enabled : t -> bool

val incr : t -> domain:int -> counter -> unit
val add : t -> domain:int -> counter -> int -> unit

(** {1 Merge-on-read} *)

type totals = {
  cas_attempts : int;
  cas_failures : int;
  refresh_rounds : int;
  helps : int;
  op_reads : int;
  op_updates : int;
  fault_yields : int;
  fault_gcs : int;
  fault_stalls : int;
}

val zero_totals : totals

val totals : t -> totals
(** Sum over all shards, with atomic reads; safe concurrently with
    recording (a snapshot at least as fresh as every completed record). *)

val total_of : totals -> counter -> int

val reset : t -> unit

val pp_totals : totals Fmt.t
