(** Liveness audits on the simulator: solo completion from random
    intermediate states (obstruction-freedom, with a step bound that
    exposes wait-freedom) and completion under relentless interference
    (wait-freedom vs lock-freedom).

    Each audit opens its runs with {!Memsim.Replay.replay}, so it raises
    [Invalid_argument], leaving the store as it is, if a run is already
    open on the session; and it finishes every run it opens, also when a
    body raises. *)

type solo_report = {
  scenarios : int;
  all_completed : bool;
  max_solo_steps : int;
}

val solo_completion_bound :
  ?scenarios:int ->
  ?max_prefix:int ->
  ?step_budget:int ->
  Memsim.Session.t ->
  n:int ->
  make_body:(int -> unit -> unit) ->
  unit ->
  solo_report
(** Drive [n] processes into random intermediate states, then run each
    alone: every obstruction-free operation must complete, and the worst
    residual step count is reported. *)

type interference_report = {
  victim_completed : bool;
  victim_steps : int;
  interference_steps : int;
}

val interference_bound :
  ?per_round:int ->
  ?victim_budget:int ->
  Memsim.Session.t ->
  victim_body:(unit -> unit) ->
  interferer_body:(unit -> unit) ->
  unit ->
  interference_report
(** Alternate one victim step with [per_round] steps of an endlessly
    retrying interferer.  A wait-free victim completes within its solo
    bound; a merely lock-free one burns steps proportional to the
    interference. *)

type plan_report = {
  survivors : int;          (** processes the plan neither crashes nor
                                freezes forever *)
  survivors_completed : bool;
  max_survivor_steps : int;
}

val completion_under_plan :
  ?max_events:int ->
  Memsim.Session.t ->
  n:int ->
  make_body:(int -> unit -> unit) ->
  plan:Memsim.Faults.plan ->
  unit ->
  plan_report
(** Run the group under a {!Memsim.Faults.plan} (gated round-robin over
    instrumented bodies) and audit the survivors: every process the plan
    neither crashes nor freezes forever must finish, in a bounded number
    of its own steps.  Used by E9's fault-matrix table and by the
    single-fault sweeps in test/test_faults.ml. *)
