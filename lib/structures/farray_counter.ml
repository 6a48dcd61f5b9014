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

(* Batched increment, for the flat-combining layer: add [k] to the
   caller's own leaf with ONE update (one propagation for the whole
   batch).  The counter's value is the sum over all leaves, so which
   leaf absorbs a combined batch is immaterial — the combiner uses its
   own, preserving the per-leaf single-writer discipline.  Metered
   under shard [pid]. *)
let add_metered t ~metrics ~pid k =
  if k < 0 then invalid_arg "Farray_counter.add: negative k";
  let c = count (Farray.read_leaf t pid) in
  Farray.update_metered t ~metrics ~domain:pid ~leaf:pid (Raw.of_int (c + k))

let add t ~pid k = add_metered t ~metrics:Obs.Metrics.disabled ~pid k
let increment t ~pid = add_metered t ~metrics:Obs.Metrics.disabled ~pid 1
let increment_metered t ~metrics ~pid = add_metered t ~metrics ~pid 1
