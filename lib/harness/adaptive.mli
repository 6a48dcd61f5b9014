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
    the triggering domain — from per-epoch signal deltas: read share
    and stale-write rate out of the dispatcher's own per-domain cells,
    CAS failure rate out of the {!Obs.Metrics} handle when a live one
    is attached, elimination/batching benefit and combiner-lock
    pressure out of {!Smem.Combine.stats}.  The decision is the pure
    {!Policy} kernel with hysteresis: [hysteresis] consecutive epochs
    must want the other mode before a flip, so the dispatcher cannot
    thrash at a crossover.  Read share only accrues when the driver
    reports reads ([tick_many ~reads] or [Op_read] on a live metrics
    handle); without it the share gate is inert and the
    contention/benefit signals — which concern only the update path the
    mode actually selects — carry the decision.

    The unmetered constructors carry the shared {!Obs.Metrics.disabled}
    handle, so the settled plain path is the raw structure op plus one
    immediate-bool branch — they dispatch on the stale-rate and arena
    signals, which is all this host can surface anyway (CAS failure
    needs true hardware parallelism), and short-circuit [domains = 1]
    to direct plain calls.  A live handle adds CAS-rate dispatch and
    keeps full dispatch at [domains = 1] (see {!S.make}).

    Batch-granular drivers (the bench's timed loops) run the raw
    [update_plain]/[update_combining] path (or the structure's own op)
    in their inner loop and settle accounting in bulk with [tick_many] — at
    whatever granularity they like: the bench flushes one [tick_many]
    per 16-batch window and re-reads [combining_now] into a cached
    per-domain mode slot only at the flush (a cached mode lags a flip
    by at most ~one epoch, and either path is linearizable in either
    mode).  Per-op [update] stays for oblivious callers.
    Raw atomics stay inside the implementation's controller module
    [Ctl] (lint R1). *)

(** The pure decision kernel: thresholds, verdicts, hysteresis. *)
module Policy : sig
  type mode = Plain | Combining

  val mode_name : mode -> string

  (** One epoch's signal deltas. *)
  type signals = {
    reads : int;
        (** read delta: [tick_many ~reads] cells + [Op_read] metrics
            (0 unless the driver reports reads one of those ways) *)
    updates : int;  (** update ops, from the dispatcher's own tick cells *)
    stale : int;
        (** plain-path updates whose value was already <= the current
            max — the plain path's estimator of elimination benefit *)
    cas_attempts : int;
    cas_failures : int;
    eliminations : int;
    combined_ops : int;
    batches : int;
    locks : int;  (** combiner-lock acquisitions *)
  }

  val zero_signals : signals

  type params = {
    epoch_ops : int;  (** epoch length in per-domain updates; power of two *)
    hysteresis : int;  (** consecutive dissenting epochs required to flip *)
    min_updates : int;  (** fewer updates = no evidence, keep current mode *)
    update_share_min : float;  (** below this update share, stay plain *)
    cas_fail_min : float;  (** CAS failure rate to enter combining *)
    stale_min : float;
        (** stale-write rate to enter combining; a bar > 1 disables the
            trigger (used where a stale plain write is already cheap) *)
    benefit_min : float;  (** (elims + combined) / updates to stay there *)
  }

  val validate : params -> unit
  (** Raises [Invalid_argument] on non-power-of-two [epoch_ops],
      [hysteresis < 1], negative thresholds, or an out-of-range share. *)

  val default_maxreg : params
  (** Algorithm A: eager — elimination + batching win exactly where CAS
      contention or a high stale-write rate shows (PR 7
      measurements). *)

  val default_cas : params
  (** cas-loop: conservative — its plain path is one CAS and combining
      measurably loses, so only pathological failure rates flip it. *)

  val default_counter : params
  (** f-array counter: conservative, like {!default_cas}. *)

  val default_control : params
  (** naive counter: the CAS bar is unreachable (it has no CAS) — the
      control never leaves the plain path under this policy. *)

  val want : params -> current:mode -> signals -> mode
  (** One epoch's verdict, ignoring hysteresis. *)

  (** Hysteresis as a pure fold over epoch verdicts. *)
  type hstate = {
    mode : mode;  (** the active mode *)
    pending : mode;  (** the mode recent dissenting epochs wanted *)
    streak : int;  (** how many consecutive epochs wanted [pending] *)
    flips : int;  (** flips applied so far *)
  }

  val initial : mode -> hstate

  val step : params -> hstate -> signals -> hstate
  (** Fold one epoch: {!want}'s verdict either resets the streak (it
      agrees with [mode]) or extends it, flipping [mode] once the
      streak reaches [params.hysteresis]. *)
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
    ?spin:int ->
    ?metrics:Obs.Metrics.t ->
    domains:int ->
    structure ->
    t
  (** Wrap a fresh structure.  [domains] sizes the arena and the tick
      cells: every [pid] must be in [0 .. domains-1].  Without a live
      [metrics] handle (absent or {!Obs.Metrics.disabled}) the plain
      path is the raw structure op plus one immediate-bool branch,
      dispatch runs on the stale-rate and arena signals, and
      [domains = 1] short-circuits every update to a direct call of the
      plain op.  A live handle must be private to the instance (its
      deltas are the CAS-rate signal); it adds CAS-rate dispatch and
      keeps full dispatch at [domains = 1]. *)

  val read : t -> int
  (** A direct call of the structure's read, in either mode. *)

  val update : t -> pid:int -> int -> unit
  (** The per-op entry: validate, solo shortcut, mode check, the plain
      path (with the stale-write tally when the policy watches it) or
      the combining path, then the epoch tick.  Raises
      [Invalid_argument] on a negative value. *)

  val unboxed : t -> structure
  (** The underlying structure.  Batch drivers run the raw op on it in
      their plain-mode inner loop (and read it directly in either
      mode): both update paths mutate this same structure, so direct
      operation is linearizable even astride a flip — it only bypasses
      the dispatcher's accounting, which the driver settles itself via
      {!tick_many}. *)

  val combining_now : t -> bool
  (** Current mode (always false solo); batch drivers hoist this. *)

  val update_plain : t -> pid:int -> int -> unit
  (** The raw plain path: no mode check, no tick, no stale tally.
      Batch drivers pair it with {!tick_many}. *)

  val update_combining : t -> pid:int -> int -> unit
  (** The raw combining path (fast-path attempt, elimination or arena
      submit), with no mode check and no tick; solo instances take the
      direct plain op.  Validates like {!update}: a negative value
      raises before any elimination is counted.  The static
      flat-combining backend is exactly this path. *)

  val tick_many :
    t -> pid:int -> reads:int -> updates:int -> stale:int -> unit
  (** Fold one batch's counts into this domain's cells, advancing the
      epoch if the bulk update crossed an [epoch_ops] boundary.  [stale]
      is the batch's count of plain updates already subsumed at
      dispatch time (always 0 for counters).  No-op solo. *)

  val arena : t -> Smem.Combine.t

  val report : t -> report
  (** Exact at quiescence (writing domains joined); a concurrent call
      may observe a slightly stale picture. *)
end

(** Adaptive Algorithm A max register ({!Policy.default_maxreg}). *)
module Alg_a : sig
  include S with type structure = Unboxed.Algorithm_a.t

  val create :
    ?policy:Policy.params -> ?spin:int -> n:int -> domains:int -> unit -> t
  (** [make] over a fresh register. *)

  val create_metered :
    ?policy:Policy.params ->
    ?spin:int ->
    metrics:Obs.Metrics.t ->
    n:int ->
    domains:int ->
    unit ->
    t
  (** [make ~metrics] over a fresh register. *)

  val read_max : t -> int
  val write_max : t -> pid:int -> int -> unit
  val write_plain : t -> pid:int -> int -> unit
  val write_combining : t -> pid:int -> int -> unit
  (** [read], [update], [update_plain] and [update_combining]. *)
end

(** Adaptive CAS-loop max register ({!Policy.default_cas}). *)
module Cas : sig
  include S with type structure = Unboxed.Cas_maxreg.t

  val create : ?policy:Policy.params -> ?spin:int -> domains:int -> unit -> t
  (** [make] over a fresh register; metered instances come from [make]. *)

  val read_max : t -> int
  val write_max : t -> pid:int -> int -> unit
  val write_plain : t -> pid:int -> int -> unit
  val write_combining : t -> pid:int -> int -> unit
end

(** Adaptive f-array counter ({!Policy.default_counter}). *)
module Farray_c : sig
  include S with type structure = Unboxed.Farray_counter.t

  val create :
    ?policy:Policy.params -> ?spin:int -> n:int -> domains:int -> unit -> t

  val increment : t -> pid:int -> unit
  (** [update] by 1. *)
end

(** Adaptive naive counter — the protocol-cost control
    ({!Policy.default_control}: never leaves the plain path). *)
module Naive_c : sig
  include S with type structure = Unboxed.Naive_counter.t

  val create :
    ?policy:Policy.params -> ?spin:int -> n:int -> domains:int -> unit -> t

  val increment : t -> pid:int -> unit
end
