(* Leaf-to-root propagation with the double-refresh trick (the paper's
   Propagate procedure, after Jayanti's tree algorithm).

   At each ancestor, a process recomputes the combination of the two
   children and CASes it into the node; the refresh is performed twice so
   that if a process's CAS fails, some concurrent CAS installed a value
   computed from a state at least as recent.  Sound with CAS (rather than
   LL/SC) provided node values never recur, which holds for all uses here:
   max of monotone values, sums of monotone counters, and concatenations of
   sequence-stamped segments.

   When the first CAS installs, as a lone updater's always does, the
   second refresh computes the value the node already holds and its CAS
   is CAS(v, v).  [refresh] issues that one as [Raw.cas_same]: the same
   CAS event in the boxed compile, one load in the unboxed one, where
   [%atomic_cas] would be a locked cmpxchg in the runtime's
   [caml_atomic_cas] once a second domain runs, taking the node's cache
   line (the root's, at the last level) from every reader polling it.
   The argument above uses only each CAS's outcome and the state it
   leaves, and CAS(v, v) succeeds iff the node holds [v] and leaves it
   unchanged either way, so it holds for the load too.

   Written once against [Raw] and compiled twice (lib/smem/unboxed,
   lib/smem/boxed).  A missing child reads as [Raw.bot]; the walk is a
   top-level self-recursive function (no closure capture) and
   [refreshes] is mandatory (an optional argument would box
   [Some refreshes] per call), so an unboxed propagate allocates
   nothing. *)

let child_value = function
  | None -> Raw.bot
  | Some (child : Raw.t Treeprim.Tree_shape.node) ->
    Raw.get child.Treeprim.Tree_shape.data

(* One refresh: 4 events (read node, read both children, CAS).  Returns
   whether the CAS installed. *)
let refresh ~combine (node : Raw.t Treeprim.Tree_shape.node) =
  let old_value = Raw.get node.Treeprim.Tree_shape.data in
  let l = child_value node.Treeprim.Tree_shape.left in
  let r = child_value node.Treeprim.Tree_shape.right in
  let v = combine l r in
  if v == old_value then Raw.cas_same node.Treeprim.Tree_shape.data old_value
  else Raw.cas node.Treeprim.Tree_shape.data old_value v

(* Walk from [node] to the root, refreshing every proper ancestor
   [refreshes] times: O(depth) events, a loop counting the failed refresh
   CASes in [failed].  [refreshes = 1] is only an ablation — it admits
   lost updates (see experiment A2); correct algorithms use 2. *)
let rec walk ~refreshes ~combine failed
    (node : Raw.t Treeprim.Tree_shape.node) =
  match node.Treeprim.Tree_shape.parent with
  | None -> failed
  | Some parent ->
    let failed = ref failed in
    for _ = 1 to refreshes do
      if not (refresh ~combine parent) then incr failed
    done;
    walk ~refreshes ~combine !failed parent

let propagate ~refreshes ~combine leaf = walk ~refreshes ~combine 0 leaf

(* The metering of one walk from [leaf]: [refreshes × depth leaf]
   refreshes of one CAS each, a [Raw.cas_same] included.  Callers test
   [metrics.enabled] first, an inlined field load ([Obs.Metrics.t] is
   private) where this call would not be: a disabled handle costs one
   branch per operation. *)
let record ~metrics ~domain ~refreshes ~helped leaf failures =
  let rounds = refreshes * Treeprim.Tree_shape.depth leaf in
  Obs.Metrics.add metrics ~domain Obs.Metrics.Refresh_round rounds;
  Obs.Metrics.add metrics ~domain Obs.Metrics.Cas_attempt rounds;
  Obs.Metrics.add metrics ~domain Obs.Metrics.Cas_failure failures;
  if helped then Obs.Metrics.incr metrics ~domain Obs.Metrics.Help
