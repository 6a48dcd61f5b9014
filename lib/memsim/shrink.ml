(* Delta-debugging of violating schedules.

   A stress run that finds a linearizability violation hands back a
   schedule of hundreds of events; almost all of them are irrelevant to
   the bug.  [minimize] shrinks the schedule with ddmin-style window
   removal — try dropping ever-smaller windows, keeping any candidate the
   caller still classifies as violating — down to a locally-minimal
   counterexample: no single event can be removed without losing the
   violation.  Because processes are deterministic, the minimized pid list
   is a complete, replayable repro. *)

(* Replay [schedule] leniently against fresh bodies: entries whose process
   is not active (already finished, or out of range) are skipped, so
   schedules mangled by shrinking still denote executions.  Returns the
   completed trace; the run is finished before a body's exception goes
   on too. *)
let replay session ~n ~make_body schedule =
  let sched = Replay.replay session ~n ~make_body ~schedule:[] () in
  match
    List.iter
      (fun pid ->
        if pid >= 0 && pid < n && Scheduler.is_active sched pid then
          ignore (Scheduler.step sched pid))
      schedule
  with
  | () -> Scheduler.finish sched
  | exception e ->
    ignore (Scheduler.finish sched : Trace.t);
    raise e

(* The effective schedule: what [replay] would actually execute. *)
let effective session ~n ~make_body schedule =
  Trace.schedule (replay session ~n ~make_body schedule)

let remove_window l i size =
  List.filteri (fun j _ -> j < i || j >= i + size) l

let minimize ?(max_tests = 10_000) ~test schedule =
  if not (test schedule) then
    invalid_arg "Shrink.minimize: the initial schedule does not satisfy test";
  let budget = ref max_tests in
  let try_ cand =
    !budget > 0
    && begin
         decr budget;
         test cand
       end
  in
  (* One left-to-right sweep removing windows of [size] events where the
     violation survives.  Greedy: a successful removal re-tries the same
     position (the window now holds fresh content). *)
  let sweep cur size =
    let cur = ref cur and i = ref 0 and changed = ref false in
    while !i < List.length !cur do
      let cand = remove_window !cur !i size in
      if List.length cand < List.length !cur && try_ cand then begin
        cur := cand;
        changed := true
      end
      else i := !i + max 1 size
    done;
    (!cur, !changed)
  in
  let rec halving cur size =
    if size <= 1 then cur
    else
      let cur', _ = sweep cur size in
      halving cur' (size / 2)
  in
  (* Single-event sweeps to a fixpoint: the result is 1-minimal. *)
  let rec fixpoint cur =
    let cur', changed = sweep cur 1 in
    if changed && !budget > 0 then fixpoint cur' else cur'
  in
  fixpoint (halving schedule (max 1 (List.length schedule / 2)))

let counterexample ?max_tests session ~n ~make_body ~check schedule =
  let test cand = not (check (replay session ~n ~make_body cand)) in
  let minimal = minimize ?max_tests ~test schedule in
  (* Normalize to the steps actually executed, so the printed repro is
     exactly the trace's schedule. *)
  let minimal = effective session ~n ~make_body minimal in
  (minimal, replay session ~n ~make_body minimal)
