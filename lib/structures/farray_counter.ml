(* Jayanti's counter from an f-array with f = sum [14]: CounterRead is a
   single read of the root (O(1)), CounterIncrement bumps the caller's leaf
   and propagates (O(log N)).  Theorem 1 of the paper shows this read/update
   point is optimal for read/write/CAS implementations.

   With one leaf per process this is the structure most exposed to false
   sharing between incrementing domains, hence the f-array's padded
   nodes ([Raw.make]). *)

type t = Farray.t

(* A node's contribution to the sum: the [bot] of an untouched leaf
   counts 0. *)
let count v =
  let c = Raw.to_int v in
  if c = min_int then 0 else c

let sum a b = Raw.of_int (count a + count b)

let create ~n () = Farray.create ~n ~combine:sum ()

let read t = count (Farray.read t)

(* Bump the caller's own leaf and propagate, preserving the per-leaf
   single-writer discipline.  Metered under shard [pid]. *)
let increment_metered t ~metrics ~pid =
  let c = count (Farray.read_leaf t pid) in
  Farray.update_metered t ~metrics ~domain:pid ~leaf:pid (Raw.of_int (c + 1))

let increment t ~pid = increment_metered t ~metrics:Obs.Metrics.disabled ~pid
