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

(** {1 Unboxed snapshot construction over an arbitrary MEMORY_INT}

    The hybrid snapshot keeps boxed vector inner nodes but is functorized
    over its leaf-register memory, so it composes with any MEMORY_INT.
    [None] when the snapshot has no int-leaf specialization (double-collect
    and Afek are vector-valued throughout).  The maxreg and counter
    structures are not functors but one source compiled per backend
    ({!Unboxed.Algorithm_a}, {!Boxed.Algorithm_a}, ...), so they have no
    [_int_over] constructor; use {!maxreg_backend} / {!counter_backend}. *)

val snapshot_int_over :
  (module Smem.Memory_intf.MEMORY_INT) ->
  n:int -> snapshot_impl -> Snapshots.Snapshot.instance option

val native_unboxed : (module Smem.Memory_intf.MEMORY_INT)

val snapshot_native_fast :
  n:int -> snapshot_impl -> Snapshots.Snapshot.instance option

(** {1 Tradeoff-dial constructors}

    The [Dial_counter] / [Dial_maxreg] family, keyed by a
    {!Treeprim.Dial.t} dial point rather than an impl enum case (a dial
    is a parameter of one construction, not a new algorithm).  The
    [_over]/[_sim] constructors run every dial point's boxed compile
    under Memsim, DPOR and the fault layer; its unboxed compile is the
    [Dial] spec of {!maxreg_backend} / {!counter_backend}. *)

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

    Every native fast-path max register and counter, keyed by a
    {!backend} and a {!spec}:

    - [Unboxed]: the unboxed compile (padded cells, inline Atomic
      primitives) — the same source as the boxed [_native]
      constructors, with allocation-free int-valued hot paths;
    - [Adaptive policy]: one {!Adaptive} instance over the same unboxed
      structure, flipping each update between the plain and the
      flat-combining path on per-epoch signals, with hysteresis
      (DESIGN.md §13); [policy] defaults to the structure's own;
    - [Combining]: the same adaptive instance with every update pinned
      to its combining path — the structure's fast-path attempt,
      elimination of stale max-register writes against the monotone
      root, batched arena submits (DESIGN.md §12).

    Returns the closed instance and, for the two dispatch backends, its
    {!dispatch} handle.  [None] exactly where no such instance exists:
    the AAC constructions on every backend (no unboxed specialization);
    and on [Combining] and [Adaptive] also B1, the literal-line-16
    ablation, the snapshot counters and the dial points.  [domains] is
    the number of participating domains: every [pid] passed to an
    operation must be in [0 .. domains-1].

    With a live [metrics] handle every instance records [Op_update] per
    update, plus CAS attempts/failures, propagate refresh rounds and
    helping events where the implementation has them (on the dispatch
    backends under the combiner's shard); the dispatch backends also
    use the handle for CAS-rate dispatch, so it must be private to the
    instance, and they keep full dispatch at [domains = 1].  [Op_read]
    is never recorded here: the [read] closures carry no pid — record
    it at the call site.  Without a live handle (absent or
    {!Obs.Metrics.disabled}) the unboxed backend calls the raw ops and
    the dispatch backends run on that shared disabled handle — not a
    private enabled one: stale-rate and arena signals only (each record
    site one immediate-bool branch), and a direct plain call per update
    at [domains = 1] (the zero-allocation guard in test_obs.ml pins the
    disabled path).  Combining statistics live in the arena: flush them
    with {!Obs.Metrics.record_combine_stats}. *)

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

val counter_backend :
  ?metrics:Obs.Metrics.t ->
  backend ->
  n:int ->
  domains:int ->
  counter_spec ->
  (Counters.Counter.instance * dispatch option) option
