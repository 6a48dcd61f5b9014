(** Jayanti-style f-arrays (PODC 2002) from read/write/CAS: a complete
    binary tree maintaining an aggregate of a single-writer array, with
    O(1) reads of the aggregate at the root and O(log n) updates via
    double-refresh propagation.

    The CAS propagation is ABA-free as long as node values never recur:
    guaranteed for monotone aggregates (sums, maxima) or sequence-stamped
    leaf values.  In the unboxed compile every node is a padded register
    and read and update allocate nothing. *)

type t

val create :
  ?refreshes:int ->
  n:int ->
  combine:(Raw.value -> Raw.value -> Raw.value) ->
  unit ->
  t
(** An f-array over [n] single-writer leaves, all initially [Raw.bot];
    internal nodes hold [combine left right] (interpret [Raw.bot] as "no
    contribution").  [refreshes] (default 2) is the per-node refresh
    count during propagation; 1 is an ablation that loses updates
    (experiment A2). *)

val n : t -> int

val read : t -> Raw.value
(** The root aggregate: one shared-memory event. *)

val read_leaf : t -> int -> Raw.value
(** One event; leaves are single-writer, so the owner can recover its
    last value. *)

val update : t -> leaf:int -> Raw.value -> unit
(** Write leaf [i] and propagate: O(log n) events. *)

val update_metered :
  t -> metrics:Obs.Metrics.t -> domain:int -> leaf:int -> Raw.value -> unit
(** [update] with refresh rounds and CAS outcomes recorded under shard
    [domain] (pass the calling pid); free with {!Obs.Metrics.disabled}. *)

val leaf_depth : t -> int -> int
