(* Algorithm A of the paper (Section 5): a wait-free linearizable max
   register from read/write/CAS with

     ReadMax        O(1)    (a single read of the root)
     WriteMax(v)    O(min(log N, log v))

   Data structure (Figure 4): a tree T whose left subtree TL is a B1 tree
   (leaf v at depth O(log v)) and whose right subtree TR is a complete
   binary tree with one leaf per process.  WriteMax(v) writes v to a leaf —
   the v-th leaf of TL when v is small, the caller's own leaf of TR
   otherwise — and propagates it to the root with double-refresh CAS.

   TL has N-1 leaves, serving values 0..N-2; values >= N-1 go to TR.  (The
   paper routes "v < N" to TL's v-th leaf; with N-1 leaves indexed from 0
   the largest TL-value is N-2.  The complexity claim is unaffected.)

   Deviation from the paper's line 16: when WriteMax(v) finds its TL leaf
   already holding v, the paper returns immediately.  That value may have
   been written by a concurrent process that has not yet propagated it, so
   returning without helping admits a non-linearizable execution (see
   test/test_paper_deviation.ml, which exhibits it).  We propagate before
   returning in that case — same O(log v) bound.  [create
   ~literal_early_return:true] reproduces the paper's literal behaviour.

   Nodes start at [Raw.bot], below every legal value, so [combine] is a
   bare max over [Raw.to_int] and, in the unboxed compile, the whole
   ReadMax/WriteMax path moves immediate ints only: zero allocation. *)

type t = {
  root : Raw.t Treeprim.Tree_shape.node;
  tl_leaves : Raw.t Treeprim.Tree_shape.node array;
  tr_leaves : Raw.t Treeprim.Tree_shape.node array;
  n : int;
  literal_early_return : bool;
  refreshes : int;
}

let create ?(literal_early_return = false) ?(tl_shape = `B1) ?(refreshes = 2)
    ~n () =
  if n <= 0 then invalid_arg "Algorithm_a.create: n must be > 0";
  let mk () = Raw.make Raw.bot in
  let tl_root, tl_leaves =
    (* `Complete is the A1 ablation: without the B1 shape, small values
       lose their O(log v) leaves and every write costs O(log N) *)
    match tl_shape with
    | `B1 -> Treeprim.Tree_shape.b1 ~mk ~nleaves:(max 1 (n - 1))
    | `Complete -> Treeprim.Tree_shape.complete ~mk ~nleaves:(max 1 (n - 1)) ()
  in
  let tr_root, tr_leaves = Treeprim.Tree_shape.complete ~mk ~nleaves:n () in
  let root = Treeprim.Tree_shape.join ~mk tl_root tr_root in
  { root; tl_leaves; tr_leaves; n; literal_early_return; refreshes }

(* ReadMax: one read of the root (lines 1-2 of Algorithm A). *)
let read_max t =
  let v = Raw.to_int (Raw.get t.root.Treeprim.Tree_shape.data) in
  if v = min_int then 0 else v

let combine a b = if Raw.to_int a >= Raw.to_int b then a else b

(* WriteMax (lines 10-18): select the leaf, skip if the leaf already holds
   a value at least as large, otherwise write and propagate.  The walk is
   metered under shard [pid], with one [Help] when the write takes the
   help-the-concurrent-writer branch (the repaired line 16). *)
let write_max_metered t ~metrics ~pid value =
  if value < 0 then invalid_arg "Algorithm_a.write_max: negative value";
  if pid < 0 || pid >= t.n then invalid_arg "Algorithm_a.write_max: bad pid";
  let in_tl = value < Array.length t.tl_leaves in
  let leaf = if in_tl then t.tl_leaves.(value) else t.tr_leaves.(pid) in
  (* [bot] reads as min_int < 0 <= value: no special case *)
  let fresh = value > Raw.to_int (Raw.get leaf.Treeprim.Tree_shape.data) in
  (* A TL leaf that already holds [value] may have been written by a
     process that has not propagated yet: help it, so that our completed
     WriteMax is visible at the root (see deviation note above). *)
  if fresh || (in_tl && not t.literal_early_return) then begin
    if fresh then Raw.set leaf.Treeprim.Tree_shape.data (Raw.of_int value);
    let failed = Propagate.propagate ~refreshes:t.refreshes ~combine leaf in
    if metrics.Obs.Metrics.enabled then
      Propagate.record ~metrics ~domain:pid ~refreshes:t.refreshes
        ~helped:(not fresh) leaf failed
  end

let write_max t ~pid value =
  write_max_metered t ~metrics:Obs.Metrics.disabled ~pid value

(* Structural introspection, used by shape tests and Figure-4 audits. *)
let tl_leaf_depth t v = Treeprim.Tree_shape.depth t.tl_leaves.(v)
let tr_leaf_depth t i = Treeprim.Tree_shape.depth t.tr_leaves.(i)
