(** Chaos harness for the native (Domain-parallel) backend.

    The simulator's adversaries pick schedules; on real hardware the
    analogue is making the OS/GC scheduler hostile: preemption storms and
    GC pressure at memory-operation boundaries, and whole domains stalled
    mid-run.  This module injects those faults through a
    chaos-instrumented {!Smem.Memory_intf.MEMORY} wrapper — the same
    boundary the algorithms already use, so no algorithm code changes —
    and collects timestamped histories that feed
    {!Linearize.Checker.check} directly.

    Injection decisions are deterministic per (seed, domain, boundary
    index), so a violating run is replayable from its seed.  Every
    injected fault is counted in the config's {!Obs.Metrics.t} handle
    ([Fault_yield]/[Fault_gc]/[Fault_stall]), making chaos visible in
    the soak's report.

    The unboxed instances of {!Instances.maxreg_unboxed} inline their
    Atomic primitives precisely to admit no wrapper, so chaos instruments
    the boxed
    {!Instances.native} backend; the step counts are identical, which is
    what the linearizability and progress claims quantify over. *)

type config = private {
  seed : int;
  yield_ppm : int;   (** yield-storm probability per boundary, ppm *)
  storm : int;       (** cpu_relax iterations per storm *)
  gc_ppm : int;      (** GC-pressure probability per boundary, ppm *)
  gc_bytes : int;    (** junk bytes allocated per GC-pressure event *)
  metrics : Obs.Metrics.t;
}

val config :
  ?yield_ppm:int ->
  ?storm:int ->
  ?gc_ppm:int ->
  ?gc_bytes:int ->
  ?metrics:Obs.Metrics.t ->
  seed:int ->
  unit ->
  config
(** Defaults: [yield_ppm = 20_000] (2% of boundaries), [storm = 64],
    [gc_ppm = 2_000] (0.2%), [gc_bytes = 4096], metrics
    {!Obs.Metrics.disabled}.  Raises [Invalid_argument] on a negative
    rate, storm or GC size, and when [yield_ppm + gc_ppm] exceeds
    1_000_000 (each boundary injects at most one of the two). *)

(** The raw-primitive containment submodule: every use of [Domain],
    [Atomic] and allocation-pressure tricks lives here (see the R1
    allowlist in [Lint.Config.default]).  The rest of the chaos layer is
    written against these few entry points. *)
module Inject : sig
  val boundary : config -> unit
  (** Roll the per-domain deterministic dice once; maybe run a
      [Domain.cpu_relax] storm, maybe allocate GC garbage (with an
      occasional forced minor collection).  Records fault counters. *)

  val stamper : unit -> unit -> int
  (** A fresh shared monotonic stamp source (atomic fetch-add): the
      returned function yields strictly increasing ints consistent with
      real-time order across domains.  Used for history timestamps. *)

  val spawn_indexed : int -> (int -> 'a) -> 'a array
  (** [spawn_indexed k f] runs [f 0 .. f (k-1)] in [k] fresh domains and
      joins them all. *)

  val stall : config -> float -> unit
  (** Sleep for the given seconds and record one [Fault_stall]. *)
end

(** {1 Chaos-instrumented memory} *)

val wrap :
  config -> (module Smem.Memory_intf.MEMORY) -> (module Smem.Memory_intf.MEMORY)
(** Every [read]/[write]/[cas] passes one injection boundary first;
    [make] is untouched (allocation is not a step). *)

(** {1 Instances over chaos memory} *)

val maxreg :
  config -> n:int -> bound:int -> Instances.maxreg_impl ->
  Maxreg.Max_register.instance

val counter :
  config -> n:int -> bound:int -> Instances.counter_impl ->
  Counters.Counter.instance

val snapshot :
  config -> n:int -> Instances.snapshot_impl -> Snapshots.Snapshot.instance

(** {1 Op-boundary injection (native fast paths)}

    The unboxed structures and Algorithm A under dispatch inline their
    Atomic primitives (arena slots, combiner lock, unboxed trees), so
    the MEMORY wrapper cannot reach them; instead the injection dice are
    rolled at every operation boundary (before and after each
    high-level op).  Coarser than per-memory-op injection, but it is the
    placement that stresses the combining protocol: a storm can park a
    domain right after it published to a slot, right after it released
    the combiner lock, or astride an adaptive epoch boundary.  Wrap an
    instance record over {!Adaptive.Alg_a} or one
    {!Instances.maxreg_unboxed} returns. *)

val instrument_maxreg :
  config -> Maxreg.Max_register.instance -> Maxreg.Max_register.instance

(** {1 Linearizability bursts}

    Run a small burst of operations (at most 62 in total — the checker's
    limit) from [domains] parallel domains against one instance,
    timestamping invocations and responses with a shared atomic stamp, and
    return the completed history for {!Linearize.Checker.check}.  The op
    mix is deterministic from [config.seed] (reads interleaved with
    writes/increments/updates of distinct values). *)

val burst_maxreg :
  config -> domains:int -> ops_per_domain:int ->
  Maxreg.Max_register.instance -> Linearize.History.op array

val burst_counter :
  config -> domains:int -> ops_per_domain:int ->
  Counters.Counter.instance -> Linearize.History.op array

val burst_snapshot :
  config -> domains:int -> ops_per_domain:int ->
  Snapshots.Snapshot.instance -> Linearize.History.op array

(** {1 Stall-one-domain runs} *)

type stall_report = {
  stalled : int;             (** which domain was stalled *)
  stall_s : float;           (** how long it slept mid-run *)
  completed : int array;     (** ops completed per domain (all of them) *)
  elapsed : float array;     (** per-domain wall-clock seconds *)
}

val run_stall_one :
  config ->
  domains:int ->
  stalled:int ->
  stall_s:float ->
  ops:int ->
  op:(pid:int -> int -> unit) ->
  stall_report
(** Every domain [pid] performs [op ~pid 1 .. op ~pid ops]; domain
    [stalled] additionally sleeps [stall_s] after its first op.  On a
    non-blocking structure the other domains' [elapsed] must not absorb
    the stall — that assertion (and per-op step ceilings via
    [config.metrics]) belongs to the caller. *)
