(** What a run prints and keeps, and [--compare]. *)

val print : Runner.result -> unit
(** Every metric by name with its unit (medians with quartiles and
    sample counts), the checks, the stationarity and host-drift flags. *)

val result_line : Runner.result -> string
(** The one-line JSON result: [correct], [attempted] and [failed] count
    checked operations; [metrics] holds the end-to-end metrics of an
    untraced run or the per-layer metrics of a traced one. *)

val append : string -> Runner.result -> argv:string array -> wall_s:float -> unit
(** Add the run, with its manifest, to a [bench-suite/v1] results file
    (created if absent). *)

val compare : Spec.t -> string -> string -> int
(** [compare spec base new_] prints, for every workload in both files and
    every end-to-end metric, both medians with quartiles, their ratio and
    a verdict: better, within bound, worse, or unresolved when the spread
    is wider than the bound.  Returns the exit code: 1 only when a
    workload's share of failed checks rose. *)
