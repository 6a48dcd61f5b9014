(** Algorithm A of the paper (Section 5): a wait-free linearizable max
    register from read/write/CAS with ReadMax O(1) and WriteMax(v)
    O(min(log N, log v)).

    The tree of Figure 4: a B1 left subtree (value leaves, leaf [v] at
    depth O(log v)) joined with a complete right subtree (one leaf per
    process), values propagated to the root with double-refresh CAS.
    In the unboxed compile every tree node is a padded register and
    ReadMax and WriteMax allocate nothing.

    Deviation: the paper's line-16 early return is unsound when the chosen
    B1 leaf was written by a concurrent, not-yet-propagated WriteMax of the
    same value; by default this implementation helps (propagates) before
    returning.  [~literal_early_return:true] reproduces the paper's literal
    behaviour (see test_paper_deviation.ml and EXPERIMENTS.md E6). *)

type t

val create :
  ?literal_early_return:bool ->
  ?tl_shape:[ `B1 | `Complete ] ->
  ?refreshes:int ->
  n:int ->
  unit ->
  t
(** A max register shared by [n] processes.  Unbounded: any non-negative
    value may be written; values below [n-1] use the cheap B1 leaves.

    Ablations (for the A1/A2 experiments; defaults are the correct,
    paper-faithful choices): [tl_shape:`Complete] replaces the B1 left
    subtree with a complete tree (losing O(log v) writes);
    [refreshes:1] performs single rather than double refresh during
    propagation (losing linearizability). *)

val read_max : t -> int
(** One shared-memory event (a read of the root). *)

val write_max : t -> pid:int -> int -> unit
(** O(min(log n, log v)) shared-memory events. *)

val write_max_metered : t -> metrics:Obs.Metrics.t -> pid:int -> int -> unit
(** The body of [write_max], which passes {!Obs.Metrics.disabled}:
    refresh rounds and CAS outcomes are recorded under shard [pid] once
    per write, plus one [Obs.Metrics.Help] when the write helps a
    concurrent same-value writer propagate (the repaired line 16).  Same
    steps; one branch, no allocation, when disabled. *)

(** {1 Structural introspection (Figure 4 audits)} *)

val tl_leaf_depth : t -> int -> int
(** Depth of the B1 leaf serving value [v]; O(log v). *)

val tr_leaf_depth : t -> int -> int
(** Depth of process [i]'s leaf in the complete subtree; O(log n). *)
