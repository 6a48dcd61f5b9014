(** The implementation registry: build any implementation, bound to a
    simulator session or to native atomics, as a closed instance.  All
    experiment drivers (CLI, benches, adversaries, tests) construct
    implementations through this module. *)

type maxreg_impl =
  | Algorithm_a           (** the paper's contribution (repaired line 16) *)
  | Algorithm_a_literal   (** verbatim line 16 — not linearizable! *)
  | Aac_maxreg            (** Aspnes–Attiya–Censor bounded, reads/writes only *)
  | B1_maxreg             (** AAC unbounded over a lazy B1 switch tree *)
  | Cas_maxreg            (** CAS retry loop, not wait-free *)

type counter_impl =
  | Aac_counter
  | Farray_counter
  | Naive_counter
  | Snapshot_counter of snapshot_impl  (** via Corollary 1's reduction *)

and snapshot_impl = Double_collect | Afek | Farray_snapshot

val maxreg_name : maxreg_impl -> string
val counter_name : counter_impl -> string
val snapshot_name : snapshot_impl -> string

val all_maxregs : maxreg_impl list
val all_counters : counter_impl list
val all_snapshots : snapshot_impl list

(** {1 Construction over an arbitrary MEMORY} *)

val maxreg_over :
  (module Smem.Memory_intf.MEMORY) ->
  n:int -> bound:int -> maxreg_impl -> Maxreg.Max_register.instance

val counter_over :
  (module Smem.Memory_intf.MEMORY) ->
  n:int -> bound:int -> counter_impl -> Counters.Counter.instance

val snapshot_over :
  (module Smem.Memory_intf.MEMORY) ->
  n:int -> snapshot_impl -> Snapshots.Snapshot.instance

(** {1 Simulator-bound constructors}

    Objects are allocated into the session's store (the initial
    configuration); operations issued during a scheduler run become
    adversary-controllable events. *)

val maxreg_sim :
  Memsim.Session.t -> n:int -> bound:int -> maxreg_impl ->
  Maxreg.Max_register.instance

val counter_sim :
  Memsim.Session.t -> n:int -> bound:int -> counter_impl ->
  Counters.Counter.instance

val snapshot_sim :
  Memsim.Session.t -> n:int -> snapshot_impl -> Snapshots.Snapshot.instance

(** {1 Native (Atomic) constructors, for Domain-parallel runs} *)

val native : (module Smem.Memory_intf.MEMORY)

val maxreg_native :
  n:int -> bound:int -> maxreg_impl -> Maxreg.Max_register.instance

val counter_native :
  n:int -> bound:int -> counter_impl -> Counters.Counter.instance

val snapshot_native : n:int -> snapshot_impl -> Snapshots.Snapshot.instance

(** {1 Tradeoff-dial constructors}

    The [Dial_counter] / [Dial_maxreg] family, keyed by a
    {!Treeprim.Dial.t} dial point rather than an impl enum case (a dial
    is a parameter of one construction, not a new algorithm).  The
    [_over]/[_sim] constructors run every dial point's boxed compile
    under Memsim, DPOR and the fault layer; its unboxed compile is the
    [Dial] spec of {!maxreg_backend} / {!counter_unboxed}. *)

val counter_dial_over :
  (module Smem.Memory_intf.MEMORY) ->
  n:int -> Treeprim.Dial.t -> Counters.Counter.instance

val counter_dial_sim :
  Memsim.Session.t -> n:int -> Treeprim.Dial.t -> Counters.Counter.instance

val maxreg_dial_over :
  (module Smem.Memory_intf.MEMORY) ->
  n:int -> Treeprim.Dial.t -> Maxreg.Max_register.instance

val maxreg_dial_sim :
  Memsim.Session.t -> n:int -> Treeprim.Dial.t -> Maxreg.Max_register.instance

(** {1 Native constructors: one per structure family}

    Every native fast-path max register, keyed by a {!backend} and a
    {!spec}:

    - [Unboxed]: the unboxed compile (padded cells, inline Atomic
      primitives) — the same source as the boxed [_native]
      constructors, with allocation-free int-valued hot paths;
    - [Adaptive policy]: one {!Adaptive.Alg_a} instance over the same
      unboxed register, flipping each update between the plain and the
      flat-combining path on per-epoch signals, with hysteresis
      (DESIGN.md §13); [policy] defaults to
      {!Adaptive.Policy.default_maxreg};
    - [Combining]: the same adaptive instance with every update pinned
      to its combining path — elimination of stale writes against the
      monotone root, batched arena submits (DESIGN.md §12).

    Returns the closed instance and, for the two dispatch backends, its
    {!dispatch} handle.  [None] exactly where no such instance exists:
    AAC on every backend (it takes a value bound, which these
    constructors do not; its unboxed compile is {!Unboxed.Aac_maxreg},
    built directly), and on [Combining] and [Adaptive] every max
    register but Algorithm A: the cas-loop register, B1, the
    literal-line-16 ablation and the dial points.  [domains] is the
    number of participating domains: every [pid] passed to an operation
    must be in [0 .. domains-1].  Every native counter is
    {!counter_unboxed}'s.

    With a live [metrics] handle every instance records [Op_update] per
    update, plus CAS attempts/failures, propagate refresh rounds and
    helping events where the implementation has them (on the dispatch
    backends under the combiner's shard).  The handle only records: the
    dispatch backends decide from signals they observe themselves, with
    or without one, so it may be shared between instances.  [Op_read]
    is never recorded here: the [read] closures carry no pid — record
    it at the call site.  Without a live handle (absent or
    {!Obs.Metrics.disabled}) every backend runs on that shared disabled
    handle — not a private enabled one: one immediate-bool branch per
    update for the metering (the zero-allocation guard in test_obs.ml
    pins the disabled path).  At [domains = 1] the dispatch backends
    make a direct plain call per update, metered or not.  Combining
    statistics live in the arena: flush them with
    {!Obs.Metrics.record_combine_stats}. *)

type 'impl spec =
  | Impl of 'impl
  | Dial of Treeprim.Dial.t
      (** the {!Unboxed.Dial_counter} / {!Unboxed.Dial_maxreg} at this
          dial point *)

type maxreg_spec = maxreg_impl spec
type counter_spec = counter_impl spec

type backend =
  | Unboxed
  | Combining
  | Adaptive of Adaptive.Policy.params option

type dispatch = {
  arena : Smem.Combine.t;
  report : unit -> Adaptive.report;
      (** the dispatcher's report; the [Combining] backend never
          consults the dispatcher, so its report stays at zero epochs *)
}

val maxreg_backend :
  ?metrics:Obs.Metrics.t ->
  backend ->
  n:int ->
  domains:int ->
  maxreg_spec ->
  (Maxreg.Max_register.instance * dispatch option) option

val counter_unboxed :
  ?metrics:Obs.Metrics.t -> n:int -> counter_spec ->
  Counters.Counter.instance option
(** The counter's unboxed compile, metered as {!maxreg_backend}'s
    instances are.  [None] for AAC (its unboxed compile is
    {!Unboxed.Aac_counter}, built directly) and for the snapshot
    counters (vector-valued, so boxed only: the native f-array snapshot
    is {!snapshot_native}, over boxed atomics).  Every [pid] passed to
    [increment] must be in [0 .. n-1]. *)
