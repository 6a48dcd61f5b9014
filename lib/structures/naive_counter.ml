(* Baseline counter at the opposite end of the tradeoff: one single-writer
   register per process.  CounterIncrement is O(1) (read + write of the own
   register); CounterRead collects all N registers (O(N)).  Wait-free, from
   reads and writes only.

   An array of adjacent one-word registers is the structure most exposed
   to false sharing — each domain's increments would invalidate its
   neighbours' cache lines — so cells come from [Raw.make], padded in
   the unboxed compile. *)

type t = { cells : Raw.t array; n : int }

let create ~n () =
  if n <= 0 then invalid_arg "Naive_counter.create: n must be > 0";
  { cells = Array.init n (fun _ -> Raw.make (Raw.of_int 0)); n }

(* Bump the caller's own (single-writer) cell: one read and one
   write. *)
let increment t ~pid =
  if pid < 0 || pid >= t.n then invalid_arg "Naive_counter.increment: bad pid";
  let cell = t.cells.(pid) in
  Raw.set cell (Raw.of_int (Raw.to_int (Raw.get cell) + 1))

let read t =
  let total = ref 0 in
  for i = 0 to t.n - 1 do
    total := !total + Raw.to_int (Raw.get t.cells.(i))
  done;
  !total
