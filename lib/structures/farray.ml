(* Jayanti-style f-arrays [14], from read/write/CAS.

   An f-array maintains an aggregate f(A[0..n-1]) of a single-writer array:
   a complete binary tree whose leaf i holds A[i] and whose internal nodes
   hold the combination of their children.  [update] writes a leaf and
   propagates with the double-refresh CAS of {!Propagate}; [read] reads
   the root — a single step, the Theorem-1-optimal point (read O(1),
   update O(log N)).

   The CAS variant is sound as long as node values never recur (no ABA):
   guaranteed when leaf values are monotone (sums, maxima) or stamped with
   per-leaf sequence numbers (snapshot vectors).

   Leaves start at [Raw.bot].  Nodes come from [Raw.make], which in the
   unboxed compile pads each to its own cache lines, so domains updating
   adjacent leaves never share one. *)

type t = {
  root : Raw.t Treeprim.Tree_shape.node;
  leaves : Raw.t Treeprim.Tree_shape.node array;
  combine : Raw.value -> Raw.value -> Raw.value;
  n : int;
  refreshes : int;  (* 2 for correctness; 1 only as an ablation *)
}

let create ?(refreshes = 2) ~n ~combine () =
  if n <= 0 then invalid_arg "Farray.create: n must be > 0";
  let mk () = Raw.make Raw.bot in
  let root, leaves = Treeprim.Tree_shape.complete ~mk ~nleaves:n () in
  { root; leaves; combine; n; refreshes }

let n t = t.n

(* One step. *)
let read t = Raw.get t.root.Treeprim.Tree_shape.data

(* One step; leaves are single-writer, so the owner may use this to
   recover its own last value. *)
let read_leaf t i =
  if i < 0 || i >= t.n then invalid_arg "Farray.read_leaf: bad index";
  Raw.get t.leaves.(i).Treeprim.Tree_shape.data

(* O(log n) steps: write the leaf, double-refresh each ancestor. *)
let update t ~leaf v =
  if leaf < 0 || leaf >= t.n then invalid_arg "Farray.update: bad index";
  let node = t.leaves.(leaf) in
  Raw.set node.Treeprim.Tree_shape.data v;
  Propagate.propagate ~refreshes:t.refreshes ~combine:t.combine node

(* [update] with the metered propagate: refresh rounds and CAS outcomes
   land in [metrics] under shard [domain] (the calling pid).  A disabled
   handle delegates to the plain [update] after one inlined field test. *)
let update_metered t ~metrics ~domain ~leaf v =
  if not metrics.Obs.Metrics.enabled then update t ~leaf v
  else begin
    if leaf < 0 || leaf >= t.n then invalid_arg "Farray.update: bad index";
    let node = t.leaves.(leaf) in
    Raw.set node.Treeprim.Tree_shape.data v;
    Propagate.propagate_metered ~metrics ~domain ~refreshes:t.refreshes
      ~combine:t.combine node
  end

let leaf_depth t i = Treeprim.Tree_shape.depth t.leaves.(i)
