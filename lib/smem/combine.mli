(** A cache-padded flat-combining arena for a max register's WriteMax.

    An op is an immediate [int], a WriteMax value.  Ops combine by max:
    applying [max a b] once is observationally equivalent to applying
    [a] and [b] in either order.

    Protocol ({!submit}): one publication slot per domain.  The caller
    first tries to acquire the combiner lock with a single CAS; on
    success it applies the max of its own op and every pending slot in
    {e one} [apply] call, clears the drained slots, and releases.
    Otherwise it publishes its op to its slot and parks (bounded
    cpu_relax spin, then [Unix.sleepf] so an oversubscribed host can
    schedule the combiner), re-attempting the lock until its slot reads
    empty.  Slots are cleared only {e after} the combined op is applied,
    so a returned [submit] guarantees the op's effect is visible: the
    waiter's op linearizes at the combiner's apply point (DESIGN.md
    §12).

    [apply] must not raise: an exception would leave the lock held and
    parked waiters stranded.  Validate op values before submitting.

    With [domains = 1] the arena is bypassed entirely ([submit] is one
    branch plus the [apply] call): a single participating domain cannot
    contend, and the single-domain benchmark rows must not pay for
    machinery they cannot use.  No stats are recorded on that path.

    Stats are per-domain single-writer padded cells (a load and an
    [Atomic.set], no CAS; the [Atomic.set] is an exchange, a locked RMW
    once a second domain runs), merged on read — the same discipline as
    [Obs.Metrics] shards, kept separate because smem sits below obs in
    the dependency order.  Elimination tallies — the one stat recorded
    on the lock-free fast path — are plain (unfenced) cells: they are
    exact once the writing domains have been joined, which is when this
    repo reads them; a [stats] call concurrent with recording may see a
    slightly stale elimination count. *)

type t

val max_domains : int
(** 62: slots are tracked in one immediate-int bitmask. *)

val create :
  ?spin:int ->
  ?yield_s:float ->
  ?sleep:(float -> unit) ->
  domains:int ->
  unit ->
  t
(** An arena for domain ids [0 .. domains-1] ([1 <= domains <=
    {!max_domains}]).  [spin] (default 256) is the one-time cpu_relax
    budget a parked waiter burns before its first sleep; it is {e not}
    re-earned between sleeps.  [yield_s] (default 50µs, must be [> 0.])
    is the first park-sleep duration; successive sleeps double up to
    [yield_s * 64] (capped exponential backoff), and every sleep is
    preceded by a fresh slot/lock re-check so backoff never delays an
    already-applied or lock-winning waiter.  [sleep] (default
    [Unix.sleepf]) exists for scripted-clock tests.  Raises
    [Invalid_argument] on out-of-range [domains], negative [spin], or
    non-positive [yield_s]. *)

val domains : t -> int

val submit : t -> domain:int -> apply:(int -> int -> unit) -> int -> unit
(** [submit t ~domain ~apply op] completes [op], either by becoming the
    combiner (applying [apply d combined] where [d = domain] and
    [combined] is the max of every pending op) or by having a
    concurrent combiner subsume it.  On return the op's effect is
    applied.  [apply] receives the {e combiner's} domain id, so the
    whole batch is written as the combiner's own WriteMax.  Pass a
    closure built once at structure creation: a literal [fun] here
    would allocate per call.  [op] must differ from the [min_int]
    sentinel. *)

val record_elimination : t -> domain:int -> unit
(** Count one locally-eliminated op (e.g. a WriteMax at or below the
    current root value, completed with zero shared writes).  The
    elimination itself is the caller's check (the combining path of
    [Harness.Adaptive.Alg_a]); the arena only keeps the tally. *)

(** {1 Merge-on-read stats} *)

type stats = {
  lock_acquisitions : int;  (** combiner-lock CAS successes *)
  batches : int;            (** drains that applied >= 2 ops at once *)
  combined_ops : int;       (** ops applied inside those batches *)
  batch_max : int;          (** largest single batch *)
  eliminations : int;       (** ops completed locally with zero shared writes *)
}

val zero_stats : stats

val stats : t -> stats
(** Sum (max for [batch_max]) over the per-domain cells; safe
    concurrently with recording, though [eliminations] is exact only at
    quiescence (its cells are unfenced — see the header). *)

val reset_stats : t -> unit
