(** The implementation registry: build any implementation, bound to a
    simulator session or to native atomics, as a closed instance.  The
    CLI, the experiments, the adversaries and the tests construct
    implementations through this module; the one native structure built
    elsewhere is Algorithm A under dispatch, {!Adaptive.Alg_a}. *)

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
    [Dial] spec of {!maxreg_unboxed} / {!counter_unboxed}. *)

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

    Every native fast-path structure, keyed by a {!spec}, as its
    unboxed compile (padded cells, inline Atomic primitives): the same
    source as the boxed [_native] constructors, with allocation-free
    int-valued hot paths.  Algorithm A under contention-adaptive
    dispatch, or pinned to flat combining, is {!Adaptive.Alg_a}, built
    directly.

    With a live [metrics] handle every instance records [Op_update] per
    update, plus CAS attempts/failures, propagate refresh rounds and
    helping events where the implementation has them.  [Op_read] is
    never recorded here: the [read] closures carry no pid — record it
    at the call site.  Without a live handle (absent or
    {!Obs.Metrics.disabled}) every instance runs on that shared
    disabled handle — not a private enabled one: one immediate-bool
    branch per update for the metering (the zero-allocation guard in
    test_obs.ml pins the disabled path). *)

type 'impl spec =
  | Impl of 'impl
  | Dial of Treeprim.Dial.t
      (** the {!Unboxed.Dial_counter} / {!Unboxed.Dial_maxreg} at this
          dial point *)

type maxreg_spec = maxreg_impl spec
type counter_spec = counter_impl spec

val maxreg_unboxed :
  ?metrics:Obs.Metrics.t -> n:int -> maxreg_spec ->
  Maxreg.Max_register.instance option
(** The max register's unboxed compile.  [None] for AAC: it takes a
    value bound, which this constructor does not; its unboxed compile
    is {!Unboxed.Aac_maxreg}, built directly.  Every [pid] passed to
    [write_max] must be in [0 .. n-1]. *)

val counter_unboxed :
  ?metrics:Obs.Metrics.t -> n:int -> counter_spec ->
  Counters.Counter.instance option
(** The counter's unboxed compile.  [None] for AAC (its unboxed compile
    is {!Unboxed.Aac_counter}, built directly) and for the snapshot
    counters (vector-valued, so boxed only: the native f-array snapshot
    is {!snapshot_native}, over boxed atomics).  Every [pid] passed to
    [increment] must be in [0 .. n-1]. *)
