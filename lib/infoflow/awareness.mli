(** Awareness sets AW(p,E) and familiarity sets F(o,E)
    (Definitions 2–4 of the paper), computed over a complete execution. *)

module Int_set : Set.S with type elt = int

type t

val compute : ?literal:bool -> ?visible:bool array -> Memsim.Event.t array -> t
(** Analyse an execution.  [visible] defaults to {!Visibility.compute} on
    the same events ([literal] selects the paper's verbatim Definition 1;
    see {!Visibility}). *)

val of_trace : ?literal:bool -> ?visible:bool array -> Memsim.Trace.t -> t

val aw_of : t -> int -> Int_set.t
(** AW(p, E): the processes [p] is aware of after the execution (always
    contains [p] itself). *)

val fam_of : t -> int -> Int_set.t
(** F(o, E): the processes object [o] is familiar with after the
    execution. *)

val m_after : t -> int -> int
(** M(E_k): the maximum cardinality over all awareness and familiarity sets
    after the first [k] events. *)

val is_hidden : t -> pids:int list -> pid:int -> bool
(** Is [pid] hidden (Definition 5): no process in [pids] other than [pid]
    is aware of it? *)

val each_object_familiar_with_at_most_one :
  t -> objs:int list -> set:int list -> bool
(** Second condition of Definition 5 for a hidden *set*: every listed object
    is familiar with at most one process of [set]. *)
