(** Domain-parallel throughput measurement, shared by the native
    experiments ([repro e7], E10b and the dial frontier) and the
    benchmark of record in [bench/suite].  Workers count completed
    operations in a domain-local [int ref] and publish once after the
    stop flag flips, through padded per-domain slots — the timed loop
    performs no shared-memory traffic beyond the operation under test
    and the stop-flag read.

    Multi-domain timing is honest: the window runs from a post-spawn start
    barrier (all workers spawned and spinning, then released together) to
    stop-acknowledged (every worker has published its count), and the
    measured elapsed time — not the requested duration — is the
    denominator.  The former [ops / requested-seconds] accounting
    inflated multi-domain rows: spawn cost and startup skew shrank the
    true window, and operations executed between [sleepf] returning and
    the workers' next stop check were counted outside it.

    Each call starts its iteration base at 0.  A caller whose workload
    must not repeat across calls (a max register's values, say) keeps
    its own cursor and ignores the base. *)

val recommended_domains : ?floor:int -> ?cap:int -> unit -> int
(** [Domain.recommended_domain_count] clamped to [[floor, cap]]
    (defaults: no clamping).  Call this rather than the [Domain] API —
    rule R1 of [bin/lint.exe] confines raw [Domain]/[Atomic] references
    to the memory layer, the observability layer and this harness. *)

val run_batched :
  ?now:(unit -> float) ->
  ?sleep:(float -> unit) ->
  domains:int ->
  seconds:float ->
  batch:int ->
  op:(int -> int -> unit) ->
  unit ->
  float
(** Spawn [domains] domains, each calling [op d i] (domain index,
    iteration base) in a loop for [seconds]; return operations per
    measured second summed over domains.  [op d i] performs [batch]
    operations itself (indices [i .. i + batch - 1]) and the base
    advances by [batch] per call, which amortizes the stop-flag read and
    loop bookkeeping so sub-10ns operations can be measured without the
    harness dominating.

    When [domains = 1] the loop runs on the {e calling} domain against a
    deadline, with no domains spawned: the OCaml 5 runtime takes a
    domain-alone fast path for atomic RMWs, and a spawned watcher domain
    would switch the whole runtime into multi-domain mode, roughly
    doubling the cost of every CAS — the single-domain row would measure
    runtime mode rather than the structure.

    Raises [Invalid_argument] before timing anything unless
    [domains >= 1], [batch >= 1] and [seconds] is finite and positive.
    An exception from [op] ends the call: on several domains the others
    run to the end of the window, every domain is joined, and the first
    worker's exception is re-raised.

    [now]/[sleep] (defaults [Unix.gettimeofday]/[Unix.sleepf]) exist so
    tests can pin the window arithmetic against a scripted clock. *)

val run_alone :
  ?now:(unit -> float) ->
  seconds:float ->
  batch:int ->
  op:(int -> int -> unit) ->
  unit ->
  float
(** The [domains = 1] path of {!run_batched}, callable directly; it
    refuses the same bad [seconds] and [batch]. *)
