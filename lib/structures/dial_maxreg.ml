(* The tradeoff-dial max register: the Dial_counter geometry with a max
   aggregate.  f(N) blocks of ceil(N/f) single-writer leaves, each block
   a max f-array: ReadMax collects the f block roots in Theta(f) steps,
   WriteMax writes the caller's leaf and propagates only inside its own
   block in O(log(N/f)) steps.  The monotone aggregate keeps the CAS
   propagation ABA-free (values never recur at a node).

   A thin sibling of Dial_counter: it exists so the maxreg half of the
   paper's tradeoff (Theorem 6 territory) can be swept across the same
   frontier the counter traces. *)

type t = { blocks : Farray.t array; bsize : int }

let combine a b = if Raw.to_int a >= Raw.to_int b then a else b

(* A node's value as a register value: [bot] reads as the initial 0
   (values are non-negative). *)
let value v =
  let x = Raw.to_int v in
  if x = min_int then 0 else x

let create ~n ~dial () =
  if n <= 0 then invalid_arg "Dial_maxreg.create: n must be > 0";
  let bsize = Treeprim.Dial.block_size ~n dial in
  let nblocks = (n + bsize - 1) / bsize in
  { blocks =
      Array.init nblocks (fun b ->
          Farray.create ~n:(min bsize (n - (b * bsize))) ~combine ());
    bsize }

let read_max t =
  let best = ref 0 in
  for b = 0 to Array.length t.blocks - 1 do
    let v = value (Farray.read t.blocks.(b)) in
    if v > !best then best := v
  done;
  !best

let write_max t ~pid v =
  if v < 0 then invalid_arg "Dial_maxreg.write_max: negative value";
  let fa = t.blocks.(pid / t.bsize) in
  let leaf = pid mod t.bsize in
  if v > value (Farray.read_leaf fa leaf) then
    Farray.update fa ~leaf (Raw.of_int v)

let write_max_metered t ~metrics ~pid v =
  if v < 0 then invalid_arg "Dial_maxreg.write_max: negative value";
  let fa = t.blocks.(pid / t.bsize) in
  let leaf = pid mod t.bsize in
  if v > value (Farray.read_leaf fa leaf) then
    Farray.update_metered fa ~metrics ~domain:pid ~leaf (Raw.of_int v)
