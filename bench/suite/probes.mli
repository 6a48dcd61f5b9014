(** The layer probes of the traced run: the harness floor, the padded
    cell primitives, the structures' solo operations, their exact step
    counts and the ladder that relates the three, plus the cost of a
    disabled metrics handle.  Times are ns per operation with the
    harness floor subtracted (the floors themselves are raw). *)

val measure : seconds:float -> (string * float) list
(** Each timed probe is the median of three [seconds]-long trials.
    Measured once per process. *)
