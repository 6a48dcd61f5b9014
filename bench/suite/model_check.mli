(** The model-check workload: one exhaustive DPOR pass over each of
    {!Subjects.Model.configs}, checking every trace class for
    linearizability and the class counts against their pins. *)

type pass = {
  seconds : float;
  classes : int;
  ops : int;  (** simulated operations completed: 3 per class *)
  updates : int;  (** of which updates: 2 per class *)
  sleep_blocked : int;
  events : int;
  per_config : (Subjects.Model.config * int) list;  (** classes found *)
  checks : int;
  failures : int;
  chunks : (float * float) array;
      (** for each chunk of 1024 consecutive classes, in exploration
          order: simulated operations per second, and the share of a CPU
          the process had meanwhile; a last, shorter chunk is left out *)
}

val run :
  ?pins:(Subjects.Model.config -> int) ->
  ?trace:Spans.t * int ->
  Subjects.Model.t ->
  pass
(** One pass.  [pins] (default {!Subjects.Model.pinned_classes}) are the
    class counts the pass must find; [trace] is the span buffers and the
    trial span to record [dpor.explore] and [linearize.check] spans
    under. *)
