(* Corollary 1's reduction: a counter from a single-writer snapshot.
   CounterIncrement(i) = one Update of segment i with the process's own
   increment count; CounterRead = one Scan, summed.  Theorem 1's counter
   tradeoff therefore transfers to snapshots.  The count lives in the
   segment alone: the update adds one to what its single writer finds
   there. *)

type t = { snap : Snapshot.instance; n : int }

let create ~n snap = { snap; n }

let increment t ~pid =
  if pid < 0 || pid >= t.n then
    invalid_arg "Counter_of_snapshot.increment: bad pid";
  t.snap.add ~pid 1

let read t = Array.fold_left ( + ) 0 (t.snap.scan ())
