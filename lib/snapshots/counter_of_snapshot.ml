(* Corollary 1's reduction: a counter from a single-writer snapshot.
   CounterIncrement(i) = one Update of segment i with the process's own
   increment count; CounterRead = one Scan, summed.  Theorem 1's counter
   tradeoff therefore transfers to snapshots. *)

type t = { snap : Snapshot.instance; local : int array; n : int }

let create ~n snap = { snap; local = Array.make n 0; n }

let increment t ~pid =
  if pid < 0 || pid >= t.n then
    invalid_arg "Counter_of_snapshot.increment: bad pid";
  (* local.(pid) is process-local: the count of the single writer pid *)
  t.local.(pid) <- t.local.(pid) + 1;
  t.snap.update ~pid t.local.(pid)

let read t = Array.fold_left ( + ) 0 (t.snap.scan ())
