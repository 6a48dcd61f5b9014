(** [BENCHMARK.json], read back: the workloads and metrics it names. *)

type t = {
  workloads : string list;
  end_to_end : (Metric.def * float) list;  (** with each metric's bound *)
  per_layer : Metric.def list;
}

val load : string -> t
(** Raises [Failure] on a missing file or a malformed entry. *)

val problems : t -> string list
(** Where the file and the program disagree: a workload or metric one
    names and the other does not, or a unit or direction that differs.
    Empty when they agree. *)
