(* Leaf-to-root propagation with the double-refresh trick (the paper's
   Propagate procedure, after Jayanti's tree algorithm).

   At each ancestor, a process recomputes the combination of the two
   children and CASes it into the node; the refresh is performed twice so
   that if a process's CAS fails, some concurrent CAS installed a value
   computed from a state at least as recent.  Sound with CAS (rather than
   LL/SC) provided node values never recur, which holds for all uses here:
   max of monotone values, sums of monotone counters, and concatenations of
   sequence-stamped segments.

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

(* One refresh: 4 events (read node, read both children, CAS). *)
let refresh ~combine (node : Raw.t Treeprim.Tree_shape.node) =
  let old_value = Raw.get node.Treeprim.Tree_shape.data in
  let l = child_value node.Treeprim.Tree_shape.left in
  let r = child_value node.Treeprim.Tree_shape.right in
  let new_value = combine l r in
  ignore (Raw.cas node.Treeprim.Tree_shape.data old_value new_value)

(* Walk from [leaf] to the root, refreshing every proper ancestor
   [refreshes] times: O(depth) events.  [refreshes = 1] exists only as an
   ablation — it loses the covering guarantee and admits lost updates
   (see experiment A2); correct algorithms use 2. *)
let rec propagate ~refreshes ~combine (leaf : Raw.t Treeprim.Tree_shape.node) =
  match leaf.Treeprim.Tree_shape.parent with
  | None -> ()
  | Some parent ->
    for _ = 1 to refreshes do
      refresh ~combine parent
    done;
    propagate ~refreshes ~combine parent

(* {2 Metered variants}

   Same walk, but each refresh round and each CAS outcome is recorded
   into an {!Obs.Metrics.t} shard ([domain] should be the calling pid).
   Kept separate from the plain walk above so the uninstrumented hot
   path carries not even the [enabled] test.  A disabled handle
   delegates to the plain walk after one inlined field test at entry
   ([Obs.Metrics.t] is a private record precisely so this test is a
   load, not a cross-library call): the no-op mode costs one branch
   per *operation*, not one call per record site. *)

let refresh_metered ~metrics ~domain ~combine
    (node : Raw.t Treeprim.Tree_shape.node) =
  if not metrics.Obs.Metrics.enabled then refresh ~combine node
  else begin
    let old_value = Raw.get node.Treeprim.Tree_shape.data in
    let l = child_value node.Treeprim.Tree_shape.left in
    let r = child_value node.Treeprim.Tree_shape.right in
    let new_value = combine l r in
    Obs.Metrics.incr metrics ~domain Obs.Metrics.Cas_attempt;
    if not (Raw.cas node.Treeprim.Tree_shape.data old_value new_value) then
      Obs.Metrics.incr metrics ~domain Obs.Metrics.Cas_failure
  end

let rec propagate_metered_live ~metrics ~domain ~refreshes ~combine
    (leaf : Raw.t Treeprim.Tree_shape.node) =
  match leaf.Treeprim.Tree_shape.parent with
  | None -> ()
  | Some parent ->
    for _ = 1 to refreshes do
      Obs.Metrics.incr metrics ~domain Obs.Metrics.Refresh_round;
      refresh_metered ~metrics ~domain ~combine parent
    done;
    propagate_metered_live ~metrics ~domain ~refreshes ~combine parent

let propagate_metered ~metrics ~domain ~refreshes ~combine
    (leaf : Raw.t Treeprim.Tree_shape.node) =
  if metrics.Obs.Metrics.enabled then
    propagate_metered_live ~metrics ~domain ~refreshes ~combine leaf
  else propagate ~refreshes ~combine leaf
