(* The Aspnes-Attiya-Censor counter [2]: a complete binary tree over N
   single-writer leaves whose internal nodes are bounded max registers
   holding the subtree's increment count.

   CounterIncrement(i): bump leaf i, then rewrite each ancestor with the sum
   of its children's current values (a WriteMax — sums are monotone, so the
   max register keeps the freshest sum).  CounterRead: ReadMax of the root.

   With B-bounded max registers (B = max total increments, polynomial in N):
     CounterRead       O(log B)          = O(log N)
     CounterIncrement  O(log N * log B)  = O(log^2 N).

   Built from reads and writes only.  Leaves come from [Raw.make], padded
   in the unboxed compile like the naive counter's per-process cells. *)

type payload =
  | Plain of Raw.t        (* leaf: single-writer increment count of one process *)
  | Max of Aac_maxreg.t   (* internal: bound-limited max register *)

type node = payload Treeprim.Tree_shape.node

type t = { root : node; leaves : node array; n : int }

let create ~n ~bound () =
  if n <= 0 then invalid_arg "Aac_counter.create: n must be > 0";
  if bound <= 0 then invalid_arg "Aac_counter.create: bound must be > 0";
  let mk () = Max (Aac_maxreg.create ~bound:(bound + 1) ()) in
  let mk_leaf () = Plain (Raw.make (Raw.of_int 0)) in
  let root, leaves = Treeprim.Tree_shape.complete ~mk ~mk_leaf ~nleaves:n () in
  { root; leaves; n }

let value_of_node (node : node) =
  match node.data with
  | Plain reg -> Raw.to_int (Raw.get reg)
  | Max mr -> Aac_maxreg.read_max mr

let child_value = function
  | None -> 0
  | Some node -> value_of_node node

(* The root is a max register, or the lone leaf when n = 1. *)
let read t = value_of_node t.root

(* Rewrite each ancestor of [node] with its children's sum, leaf to
   root.  A sum the max register cannot hold (more than [bound]
   increments) raises [Invalid_argument]. *)
let rec up ~pid (node : node) =
  match node.parent with
  | None -> ()
  | Some parent ->
    let sum = child_value parent.left + child_value parent.right in
    (match parent.data with
     | Max mr -> Aac_maxreg.write_max mr ~pid sum
     | Plain _ -> assert false);
    up ~pid parent

let increment t ~pid =
  if pid < 0 || pid >= t.n then invalid_arg "Aac_counter.increment: bad pid";
  let leaf = t.leaves.(pid) in
  (match leaf.data with
   | Plain reg ->
     let c = Raw.to_int (Raw.get reg) in
     Raw.set reg (Raw.of_int (c + 1))
   | Max _ -> assert false);
  up ~pid leaf
