(* The tradeoff-dial counter: Theorem 1's frontier as one parameterized
   construction.  The N per-process leaves are grouped into f(N) blocks
   of ceil(N/f) leaves ({!Treeprim.Dial}); each block is a sum f-array,
   so CounterRead collects the f block roots in Theta(f) steps and
   CounterIncrement bumps the caller's leaf and propagates only to its
   own block root in O(log(N/f)) steps.

   The extreme dials coincide with the existing structures — F_one is
   Farray_counter (one block of N leaves), F_n is Naive_counter (N
   single-leaf blocks, where propagation is empty and an increment is a
   read + write of the own cell) — and F_log / F_sqrt realize the
   interior points the paper's tradeoff curve promises. *)

type t = { blocks : Farray.t array; bsize : int }

(* An untouched leaf's [bot] contributes 0 to the sum. *)
let count v =
  let c = Raw.to_int v in
  if c = min_int then 0 else c

let sum a b = Raw.of_int (count a + count b)

let create ~n ~dial () =
  if n <= 0 then invalid_arg "Dial_counter.create: n must be > 0";
  let bsize = Treeprim.Dial.block_size ~n dial in
  let nblocks = (n + bsize - 1) / bsize in
  { blocks =
      Array.init nblocks (fun b ->
          Farray.create ~n:(min bsize (n - (b * bsize))) ~combine:sum ());
    bsize }

let read t =
  let total = ref 0 in
  for b = 0 to Array.length t.blocks - 1 do
    total := !total + count (Farray.read t.blocks.(b))
  done;
  !total

(* Mirroring {!Farray_counter.increment_metered}: bump the caller's own
   leaf with one in-block propagation, metered under shard [pid]. *)
let increment_metered t ~metrics ~pid =
  let fa = t.blocks.(pid / t.bsize) in
  let leaf = pid mod t.bsize in
  let c = count (Farray.read_leaf fa leaf) in
  Farray.update_metered fa ~metrics ~domain:pid ~leaf (Raw.of_int (c + 1))

let increment t ~pid = increment_metered t ~metrics:Obs.Metrics.disabled ~pid
