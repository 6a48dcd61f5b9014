(** The metrics the suite reports, as [BENCHMARK.json] lists them.
    {!Spec.check} fails a run whose file and this list disagree. *)

type better = Higher | Lower

type def = { name : string; unit_ : string; better : better }

val end_to_end : def list
(** Reported by every untraced run, for every workload. *)

val per_layer : def list
(** Reported by every traced run, for every workload; a layer the
    workload does not touch reads 0. *)

val better_string : better -> string
