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
  bool
(** One refresh of one node: 4 shared-memory events (read node, read both
    children, CAS).  [true] iff the CAS installed.  When the combination
    is the value read ([==]), the CAS is CAS(v, v) and goes through
    [Raw.cas_same]: the same CAS in the boxed compile, one load in the
    unboxed one, where [%atomic_cas] would take a locked cmpxchg once a
    second domain runs.  A lone updater's second refresh of each node is
    such a CAS. *)

val propagate :
  refreshes:int ->
  combine:(Raw.value -> Raw.value -> Raw.value) ->
  Raw.t Treeprim.Tree_shape.node ->
  int
(** Refresh every proper ancestor of the given leaf bottom-up, [refreshes]
    times each: O(depth) events.  Returns the number of refresh CASes
    that failed.  Correctness requires 2; [refreshes:1] is an ablation
    that admits lost updates (experiment A2). *)

val record :
  metrics:Obs.Metrics.t ->
  domain:int ->
  refreshes:int ->
  helped:bool ->
  Raw.t Treeprim.Tree_shape.node ->
  int ->
  unit
(** [record ~metrics ~domain ~refreshes ~helped leaf failures] meters one
    {!propagate} from [leaf] that returned [failures] under shard
    [domain] (the calling pid): [refreshes × depth leaf] refresh rounds
    and CAS attempts, [failures] CAS failures, and one [Help] if
    [helped].  Attempts count the model's CAS steps, so a refresh the
    unboxed compile answers with a load ({!refresh}) counts as one.  No
    step, no allocation.  Call it under [if metrics.Obs.Metrics.enabled],
    so that a disabled handle costs one branch per operation and no
    call. *)
