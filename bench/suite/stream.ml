let period = 1024
let mask = period - 1

(* One 128-byte stride per domain: cells written by different domains
   never share a cache line. *)
let stride = 16

type slot =
  | Reads
  | Updates
  | Increments
  | Stale
  | Last_max
  | Last_count
  | Checks
  | Failures

let index = function
  | Reads -> 0
  | Updates -> 1
  | Increments -> 2
  | Stale -> 3
  | Last_max -> 4
  | Last_count -> 5
  | Checks -> 6
  | Failures -> 7

let batches = 8
let cursor = 9
let max_slot = 10

type t = {
  domains : int;
  base : int;
  read_batch : bool array;
  stale : int array;  (* 0: fresh; k > 0: k - 1 steps below the maximum *)
  cells : int array;
}

(* A table with exactly [round (share * period)] marked entries, in a
   seeded order. *)
let exact_table rng ~share mark =
  let marked = int_of_float (Float.round (share *. float_of_int period)) in
  let a = Array.init period (fun i -> if i < marked then mark rng else 0) in
  for i = period - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let create ~seed ~salt ~domains ~base ~read_share ~stale_share =
  let rng = Random.State.make [| seed; salt |] in
  let reads = exact_table rng ~share:read_share (fun _ -> 1) in
  let stale =
    exact_table rng ~share:stale_share (fun rng -> 1 + Random.State.int rng 8)
  in
  let cells = Array.make (domains * stride) 0 in
  for d = 0 to domains - 1 do
    cells.((d * stride) + max_slot) <- base + d - domains
  done;
  { domains; base; read_batch = Array.map (fun r -> r = 1) reads; stale; cells }

let get t d s = t.cells.((d * stride) + index s)
let set t d s v = t.cells.((d * stride) + index s) <- v

let add t d s k =
  let i = (d * stride) + index s in
  t.cells.(i) <- t.cells.(i) + k

let next_is_read t d =
  let c = (d * stride) + batches in
  let k = Array.unsafe_get t.cells c in
  Array.unsafe_set t.cells c (k + 1);
  Array.unsafe_get t.read_batch (k land mask)

let next_value t d =
  let o = d * stride in
  let k = Array.unsafe_get t.cells (o + cursor) in
  Array.unsafe_set t.cells (o + cursor) (k + 1);
  let top = Array.unsafe_get t.cells (o + max_slot) in
  let back = Array.unsafe_get t.stale (k land mask) in
  let v =
    if back = 0 || top < t.base then top + t.domains
    else max (t.base + d) (top - ((back - 1) * t.domains))
  in
  if v <= top then add t d Stale 1
  else Array.unsafe_set t.cells (o + max_slot) v;
  v

let max_written t d = t.cells.((d * stride) + max_slot)

let total t s =
  let acc = ref 0 in
  for d = 0 to t.domains - 1 do
    acc := !acc + get t d s
  done;
  !acc

let check t d ok =
  add t d Checks 1;
  if not ok then add t d Failures 1
