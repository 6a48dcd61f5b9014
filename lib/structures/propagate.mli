(** Leaf-to-root propagation with double-refresh CAS (the paper's
    [Propagate], after Jayanti's tree algorithm): at each ancestor the
    combination of the two children is recomputed and CASed in, twice, so a
    failed CAS implies a concurrent refresh installed a value at least as
    fresh.

    Sound with CAS (rather than LL/SC) provided node values never recur —
    guaranteed for monotone aggregates (max, sums) and sequence-stamped
    tuples.  A missing child reads as [Raw.bot]; in the unboxed compile a
    propagate performs no allocation. *)

val refresh :
  combine:(Raw.value -> Raw.value -> Raw.value) ->
  Raw.t Treeprim.Tree_shape.node ->
  unit
(** One refresh of one node: 4 shared-memory events (read node, read both
    children, CAS). *)

val propagate :
  refreshes:int ->
  combine:(Raw.value -> Raw.value -> Raw.value) ->
  Raw.t Treeprim.Tree_shape.node ->
  unit
(** Refresh every proper ancestor of the given leaf bottom-up, [refreshes]
    times each: O(depth) events.  Correctness requires 2; [refreshes:1]
    is an ablation that admits lost updates (experiment A2). *)

(** {1 Metered variants}

    Identical walk, recording one [Refresh_round] per node refresh and
    one [Cas_attempt] / [Cas_failure] per refresh CAS into the given
    {!Obs.Metrics.t} under shard [domain] (pass the calling pid).  With
    {!Obs.Metrics.disabled} each record site is a single immediate-bool
    branch and allocates nothing; metering is never a shared-memory
    step. *)

val refresh_metered :
  metrics:Obs.Metrics.t ->
  domain:int ->
  combine:(Raw.value -> Raw.value -> Raw.value) ->
  Raw.t Treeprim.Tree_shape.node ->
  unit

val propagate_metered :
  metrics:Obs.Metrics.t ->
  domain:int ->
  refreshes:int ->
  combine:(Raw.value -> Raw.value -> Raw.value) ->
  Raw.t Treeprim.Tree_shape.node ->
  unit
