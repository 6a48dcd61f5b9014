(** Corollary 1's reduction: a counter from any single-writer snapshot
    (increment = one Update of the caller's segment with its count, which
    it reads from that segment, {!Snapshot.S.add}; read = one Scan,
    summed).  Transfers Theorem 1's counter tradeoff to snapshots. *)

type t

val create : n:int -> Snapshot.instance -> t
val increment : t -> pid:int -> unit
val read : t -> int
