(* Liveness audits.

   Wait-freedom (the paper's guarantee for Algorithm A, Theorem 6) says
   every process finishes its operation in a bounded number of its own
   steps regardless of scheduling.  Obstruction-freedom says it finishes if
   eventually run alone.  Neither can be proven by testing, but both can be
   audited sharply on the simulator:

   - [solo_completion_bound]: drive a group of processes into many random
     intermediate states, then run each process alone and record the
     maximum number of further steps it needed.  A wait-free operation
     shows a bound independent of the seed; a lock-free-only operation
     (e.g. the CAS-loop register) still completes solo (obstruction-free)
     but its TOTAL steps vary with the interference it suffered.

   - [interference_bound]: run one victim process against a perpetual
     interferer with a fixed step budget; a wait-free victim finishes
     within its solo bound regardless, a non-wait-free one exceeds any
     fixed budget as the interference grows. *)

open Memsim

(* Each audit opens a fresh run and finishes it however the audit ends,
   so a body that raises leaves no run open on the session. *)
let finish sched = ignore (Scheduler.finish sched : Trace.t)

type solo_report = {
  scenarios : int;          (* random intermediate states examined *)
  all_completed : bool;     (* every process finished when run alone *)
  max_solo_steps : int;     (* steps needed to finish from the worst state *)
}

(* [make_bodies session] returns the bodies of the process group; fresh
   bodies are requested per scenario so operations restart cleanly. *)
let solo_completion_bound ?(scenarios = 50) ?(max_prefix = 40)
    ?(step_budget = 100_000) session ~n ~make_body () =
  let all_completed = ref true in
  let worst = ref 0 in
  for seed = 1 to scenarios do
    let sched = Replay.replay session ~n ~make_body ~schedule:[] () in
    Fun.protect ~finally:(fun () -> finish sched) (fun () ->
        let rng = Random.State.make [| seed |] in
        Faults.run_random ~seed:(Random.State.bits rng)
          ~max_events:(Random.State.int rng max_prefix)
          sched (Faults.gate []);
        for pid = 0 to n - 1 do
          let before = Scheduler.steps_of sched pid in
          Scheduler.run_solo ~max_events:step_budget sched pid;
          if not (Scheduler.is_finished sched pid) then all_completed := false
          else worst := max !worst (Scheduler.steps_of sched pid - before)
        done)
  done;
  { scenarios; all_completed = !all_completed; max_solo_steps = !worst }

type interference_report = {
  victim_completed : bool;  (* within the budget, despite interference *)
  victim_steps : int;
  interference_steps : int;
}

(* Alternate one victim step with [per_round] interferer steps; the
   interferer restarts its operation forever. *)
let interference_bound ?(per_round = 8) ?(victim_budget = 10_000) session
    ~victim_body ~interferer_body () =
  let victim = 0 and interferer = 1 in
  let make_body pid () =
    if pid = victim then victim_body ()
    else
      (* an endless stream of operations *)
      while true do
        interferer_body ()
      done
  in
  let sched = Replay.replay session ~n:2 ~make_body ~schedule:[] () in
  Fun.protect ~finally:(fun () -> finish sched) (fun () ->
      let interference = ref 0 in
      let budget = ref victim_budget in
      while Scheduler.is_active sched victim && !budget > 0 do
        ignore (Scheduler.step sched victim);
        decr budget;
        for _ = 1 to per_round do
          if Scheduler.is_active sched interferer then begin
            ignore (Scheduler.step sched interferer);
            incr interference
          end
        done
      done;
      { victim_completed = Scheduler.is_finished sched victim;
        victim_steps = Scheduler.steps_of sched victim;
        interference_steps = !interference })

type plan_report = {
  survivors : int;
  survivors_completed : bool;
  max_survivor_steps : int;
}

(* Run the group under a fault plan (crashes/CAS-failures instrument the
   bodies, stalls/halts gate the scheduler) and audit the SURVIVORS: every
   process the plan neither crashes nor freezes forever must still finish,
   in a bounded number of its own steps.  This is the liveness half of the
   fault sweep; linearizability of the surviving history is checked by the
   test suites and bin/stress.exe. *)
let completion_under_plan ?(max_events = 100_000) session ~n ~make_body ~plan
    () =
  let sched =
    Replay.replay session ~n ~make_body:(Faults.instrument plan make_body)
      ~schedule:[] ()
  in
  Fun.protect ~finally:(fun () -> finish sched) (fun () ->
      let g = Faults.gate plan in
      Faults.run_round_robin ~max_events sched g;
      let crashed pid =
        List.exists
          (function Faults.Crash { pid = p; _ } -> p = pid | _ -> false)
          plan
      in
      let survivors =
        List.filter
          (fun pid -> (not (crashed pid)) && not (Faults.halted_forever g pid))
          (List.init n Fun.id)
      in
      { survivors = List.length survivors;
        survivors_completed =
          List.for_all (fun pid -> Scheduler.is_finished sched pid) survivors;
        max_survivor_steps =
          List.fold_left
            (fun acc pid -> max acc (Scheduler.steps_of sched pid))
            0 survivors })
