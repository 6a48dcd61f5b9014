(** Contention-adaptive backend dispatch: each instance owns ONE
    underlying unboxed structure plus a {!Smem.Combine} arena over it,
    and routes every update through whichever side of the paper's
    read/update tradeoff the recent workload favors — the plain
    lock-free path, or the flat-combining path (the structure's
    fast-path attempt: elimination against the monotone root or
    cas-loop's [write_once], then a batched arena submit).  The static
    flat-combining backend is an instance here whose updates always
    take the combining path ({!S.update_combining}); there is no
    separate combining module.

    Reads are always direct: the mode selects an update path only, so
    read-heavy mixes pay nothing for the adaptivity.  Flips never copy
    state (both paths mutate the same structure), and mixed-mode
    windows are linearizable: an arena apply IS the plain operation,
    executed on the combiner's domain.

    Dispatch runs on epoch boundaries — every [epoch_ops] updates of
    the triggering domain — from per-epoch signal deltas that every
    instance observes itself: update counts and the stale-write rate
    out of the dispatcher's own per-domain cells, elimination/batching
    benefit out of {!Smem.Combine.stats}.  The decision is the pure
    {!Policy} kernel with hysteresis: [hysteresis] consecutive epochs
    must want the other mode before a flip, so the dispatcher cannot
    thrash at a crossover.

    A metrics handle only records: the structure's update op counts
    its CAS attempts/failures and refresh rounds there, and nothing in
    dispatch reads it, so a metered instance makes the same decisions
    as an unmetered one fed the same updates.  The unmetered
    constructors carry the shared {!Obs.Metrics.disabled} handle, so
    the settled plain path is the raw structure op plus one
    immediate-bool branch; every instance short-circuits
    [domains = 1] to direct plain calls.

    There is one update path per mode: every caller, the bench's timed
    loops included, runs {!S.update} per op (or {!S.update_combining},
    the combining path pinned).  Raw atomics stay inside the
    implementation's controller module [Ctl] (lint R1). *)

(** The pure decision kernel: thresholds, verdicts, hysteresis. *)
module Policy : sig
  type mode = Plain | Combining

  val mode_name : mode -> string

  (** One epoch's signal deltas. *)
  type signals = {
    updates : int;  (** update ops, from the dispatcher's own tick cells *)
    stale : int;
        (** plain-path updates whose value was already <= the current
            max — the plain path's estimator of elimination benefit *)
    eliminations : int;
    combined_ops : int;
  }

  val zero_signals : signals

  type params = {
    epoch_ops : int;  (** epoch length in per-domain updates; power of two *)
    hysteresis : int;  (** consecutive dissenting epochs required to flip *)
    min_updates : int;  (** fewer updates = no evidence, keep current mode *)
    stale_min : float;
        (** stale-write rate to enter combining; a bar > 1 disables the
            trigger (used where a stale plain write is already cheap) *)
    benefit_min : float;  (** (elims + combined) / updates to stay there *)
  }

  val validate : params -> unit
  (** Raises [Invalid_argument] on non-power-of-two [epoch_ops],
      [hysteresis < 1] or negative thresholds. *)

  val default_maxreg : params
  (** Algorithm A: eager — elimination + batching win exactly where a
      high stale-write rate shows (DESIGN.md §12). *)

  val default_plain : params
  (** cas-loop and both counters: the stale trigger is disabled (a
      stale cas-loop write is already one load; an increment is never
      stale), so the instance never leaves the plain path, where the
      combining measurements put these structures (DESIGN.md §12). *)

  val thrash : params
  (** Flip-forcing, for tests and chaos runs that stress mixed-mode
      windows: an epoch every 2 updates, hysteresis 1, a stale bar of 0
      (every epoch with an update wants combining) and a benefit bar of
      10 (no epoch earns it, so the next one sends it straight back) —
      the mode flips at every epoch boundary. *)

  val want : params -> current:mode -> signals -> mode
  (** One epoch's verdict, ignoring hysteresis. *)

  (** Hysteresis as a pure fold over epoch verdicts. *)
  type hstate = {
    mode : mode;  (** the active mode *)
    streak : int;  (** consecutive epochs that wanted the other mode *)
    flips : int;  (** flips applied so far *)
  }

  val initial : mode -> hstate

  val step : params -> hstate -> signals -> hstate
  (** Fold one epoch: {!want}'s verdict either resets the streak (it
      agrees with [mode]) or extends it, flipping [mode] on the
      [params.hysteresis]-th consecutive dissent. *)
end

type report = {
  mode : Policy.mode;  (** mode at report time *)
  epochs : int;  (** epoch evaluations *)
  epoch_flips : int;
  combining_ops_pct : float;
      (** % of update ops executed while in combining mode (0..100),
          ops-weighted, including the residual partial epoch *)
}

(** What every adaptive instance offers, whatever its structure.  All
    of it is the one shared update kernel; an instance adds only its
    constructors and a direct read. *)
module type S = sig
  type t

  type structure
  (** The underlying unboxed structure. *)

  val make :
    ?policy:Policy.params ->
    ?metrics:Obs.Metrics.t ->
    domains:int ->
    structure ->
    t
  (** Wrap a fresh structure.  Both update paths mutate it in place, so
      a caller that keeps it may read it directly.  [domains] sizes the
      arena and the tick cells: every [pid] must be in
      [0 .. domains-1], and [domains = 1] short-circuits every update
      to a direct call of the plain op.  [metrics] (default
      {!Obs.Metrics.disabled}, whose plain path is the raw structure op
      plus one immediate-bool branch) receives the structure's counts
      and never steers dispatch; it may be shared with other
      instances. *)

  val read : t -> int
  (** A direct call of the structure's read, in either mode. *)

  val update : t -> pid:int -> int -> unit
  (** The per-op entry: validate, solo shortcut, mode check, the plain
      path (with the stale-write tally when the policy watches it) or
      the combining path, then the epoch tick.  Raises
      [Invalid_argument] on a negative value. *)

  val update_combining : t -> pid:int -> int -> unit
  (** The raw combining path (fast-path attempt, elimination or arena
      submit), with no mode check and no tick; solo instances take the
      direct plain op.  Validates like {!update}: a negative value
      raises before any elimination is counted.  The static
      flat-combining backend is exactly this path. *)

  val arena : t -> Smem.Combine.t

  val report : t -> report
  (** Exact at quiescence (writing domains joined); a concurrent call
      may observe a slightly stale picture. *)
end

(** Adaptive Algorithm A max register ({!Policy.default_maxreg}). *)
module Alg_a : sig
  include S with type structure = Unboxed.Algorithm_a.t

  val create : ?policy:Policy.params -> n:int -> domains:int -> unit -> t
  (** [make] over a fresh register. *)

  val create_metered :
    ?policy:Policy.params ->
    metrics:Obs.Metrics.t ->
    n:int ->
    domains:int ->
    unit ->
    t
  (** [make ~metrics] over a fresh register. *)

  val read_max : t -> int
  val write_max : t -> pid:int -> int -> unit
  (** [read] and [update]. *)
end

(** Adaptive CAS-loop max register ({!Policy.default_plain}). *)
module Cas : sig
  include S with type structure = Unboxed.Cas_maxreg.t

  val create : ?policy:Policy.params -> domains:int -> unit -> t
  (** [make] over a fresh register; metered instances come from [make]. *)

  val read_max : t -> int
  val write_max : t -> pid:int -> int -> unit
end

(** Adaptive f-array counter ({!Policy.default_plain}). *)
module Farray_c : sig
  include S with type structure = Unboxed.Farray_counter.t

  val create : ?policy:Policy.params -> n:int -> domains:int -> unit -> t

  val increment : t -> pid:int -> unit
  (** [update] by 1. *)
end

(** Adaptive naive counter — the protocol-cost control
    ({!Policy.default_plain}: never leaves the plain path). *)
module Naive_c : sig
  include S with type structure = Unboxed.Naive_counter.t

  val create : ?policy:Policy.params -> n:int -> domains:int -> unit -> t

  val increment : t -> pid:int -> unit
end
