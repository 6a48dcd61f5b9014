(** Contention-adaptive backend dispatch for Algorithm A: each instance
    owns ONE unboxed Algorithm A register plus a {!Smem.Combine} arena
    over it, and routes every WriteMax through whichever side of the
    paper's read/update tradeoff the recent workload favors — the plain
    wait-free path, or the flat-combining path (elimination against the
    monotone root, then a batched arena submit).  Pinned flat combining
    is an instance here whose updates all take the combining path
    ({!Alg_a.update_combining}); there is no separate combining module,
    and no other structure is dispatched.

    Reads are always direct: the mode selects an update path only, so
    read-heavy mixes pay nothing for the adaptivity.  Flips never copy
    state (both paths mutate the same register), and mixed-mode windows
    are linearizable: an arena apply IS the plain operation, executed on
    the combiner's domain.

    Dispatch runs on epoch boundaries — every [epoch_ops] updates of
    the triggering domain — from per-epoch signal deltas that every
    instance observes itself: update counts and the stale-write rate
    out of the dispatcher's own per-domain cells, elimination/batching
    benefit out of {!Smem.Combine.stats}.  The decision is the pure
    {!Policy} kernel with hysteresis: [hysteresis] consecutive epochs
    must want the other mode before a flip, so the dispatcher cannot
    thrash at a crossover.

    A metrics handle only records: the register's WriteMax counts its
    CAS attempts/failures and refresh rounds there, and nothing in
    dispatch reads it, so a metered instance makes the same decisions
    as an unmetered one fed the same updates.  The unmetered
    constructors carry the shared {!Obs.Metrics.disabled} handle, so
    the settled plain path is the raw register op plus one
    immediate-bool branch; every instance short-circuits [domains = 1]
    to direct plain calls.

    There is one update path per mode: every caller, the bench's timed
    loops included, runs {!Alg_a.write_max} per op (or
    {!Alg_a.update_combining}, the combining path pinned).  Raw atomics
    stay inside the implementation's controller module [Ctl] (lint
    R1). *)

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
    stale_min : float;  (** stale-write rate to enter combining *)
    benefit_min : float;  (** (elims + combined) / updates to stay there *)
  }

  val validate : params -> unit
  (** Raises [Invalid_argument] on non-power-of-two [epoch_ops],
      [hysteresis < 1] or negative thresholds. *)

  val default_maxreg : params
  (** Eager: elimination + batching win exactly where a high stale-write
      rate shows (DESIGN.md §12). *)

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

(** The adaptive Algorithm A max register ({!Policy.default_maxreg}). *)
module Alg_a : sig
  type t

  val create_metered :
    ?policy:Policy.params ->
    metrics:Obs.Metrics.t ->
    n:int ->
    domains:int ->
    unit ->
    t
  (** A fresh [n]-process register under dispatch.  [domains] sizes the
      arena and the tick cells: every [pid] must be in
      [0 .. domains-1], and [domains = 1] short-circuits every update
      to a direct call of the plain op.  [metrics] receives the
      register's counts and never steers dispatch; it may be shared
      with other instances. *)

  val create : ?policy:Policy.params -> n:int -> domains:int -> unit -> t
  (** [create_metered ~metrics:Obs.Metrics.disabled]: the plain path is
      the raw register op plus one immediate-bool branch. *)

  val read_max : t -> int
  (** A direct call of the register's ReadMax, in either mode. *)

  val write_max : t -> pid:int -> int -> unit
  (** The per-op entry: validate, solo shortcut, mode check, the plain
      path (with the stale-write tally) or the combining path, then the
      epoch tick.  Raises [Invalid_argument] on a negative value. *)

  val update_combining : t -> pid:int -> int -> unit
  (** The raw combining path (elimination or arena submit), with no mode
      check and no tick; solo instances take the direct plain op.
      Validates like {!write_max}: a negative value raises before any
      elimination is counted.  Pinned flat combining is exactly this
      path. *)

  val arena : t -> Smem.Combine.t

  val report : t -> report
  (** Exact at quiescence (writing domains joined); a concurrent call
      may observe a slightly stale picture. *)
end
