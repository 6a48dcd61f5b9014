(* Exhaustive schedule exploration (bounded model checking).

   Enumerate every interleaving of a small set of processes and hand each
   complete execution to a callback.  Continuations are one-shot, so a
   prefix cannot be forked; instead each schedule is re-executed from the
   initial configuration (processes are deterministic, so prefix work is
   identical).  Cost is O(#schedules * length) — affordable exactly in the
   regime where exhaustiveness is interesting (2-4 processes, a few steps
   each). *)

type stats = { explored : int; truncated : bool }

(* Replay [rev_prefix] (newest first) and return the open run with its
   active pids. *)
let active_after session ~n ~make_body rev_prefix =
  let sched =
    Replay.replay session ~n ~make_body ~schedule:(List.rev rev_prefix) ()
  in
  (sched, Scheduler.active_pids sched)

(* Depth-first over all maximal schedules.  [on_complete] receives the full
   trace of each complete execution; return [false] from it to abort the
   exploration early (e.g. a counterexample was found). *)
let run ?(max_schedules = 1_000_000) ?(max_events = 60) session ~n ~make_body
    ~on_complete () =
  let explored = ref 0 in
  let truncated = ref false in
  let continue = ref true in
  (* rev_prefix is the schedule so far, newest first *)
  let rec dfs rev_prefix len =
    if !continue then begin
      if !explored >= max_schedules || len > max_events then
        truncated := true
      else begin
        let sched, active = active_after session ~n ~make_body rev_prefix in
        match active with
        | [] ->
          let trace = Scheduler.finish sched in
          incr explored;
          if not (on_complete trace) then continue := false
        | pids ->
          ignore (Scheduler.finish sched);
          List.iter (fun pid -> dfs (pid :: rev_prefix) (len + 1)) pids
      end
    end
  in
  dfs [] 0;
  { explored = !explored; truncated = !truncated }

(* When every process issues a schedule-independent number of events (true
   of all write-once tree algorithms here — CAS failures do not change step
   counts), complete schedules are exactly the interleavings of the given
   per-process counts, and each needs to be executed only once: much
   cheaper than prefix-replaying DFS. *)
let run_interleavings ?(max_schedules = 1_000_000) session ~make_body ~counts
    ~on_complete () =
  let n = Array.length counts in
  let explored = ref 0 in
  let truncated = ref false in
  let continue = ref true in
  let remaining = Array.copy counts in
  let execute rev_schedule =
    let schedule = List.rev rev_schedule in
    let sched = Replay.replay session ~n ~make_body ~schedule:[] () in
    List.iter
      (fun pid ->
        if not (Scheduler.is_active sched pid) then begin
          ignore (Scheduler.finish sched);
          invalid_arg
            "Explore.run_interleavings: step counts are schedule-dependent"
        end;
        ignore (Scheduler.step sched pid))
      schedule;
    if Scheduler.active_pids sched <> [] then begin
      ignore (Scheduler.finish sched);
      invalid_arg
        "Explore.run_interleavings: step counts are schedule-dependent"
    end;
    let trace = Scheduler.finish sched in
    incr explored;
    if not (on_complete trace) then continue := false
  in
  let rec go rev_schedule left =
    if !continue then
      if !explored >= max_schedules then truncated := true
      else if left = 0 then execute rev_schedule
      else
        for pid = 0 to n - 1 do
          if !continue && remaining.(pid) > 0 then begin
            remaining.(pid) <- remaining.(pid) - 1;
            go (pid :: rev_schedule) (left - 1);
            remaining.(pid) <- remaining.(pid) + 1
          end
        done
  in
  go [] (Array.fold_left ( + ) 0 counts);
  { explored = !explored; truncated = !truncated }

(* Solo step counts, for run_interleavings. *)
let solo_counts session ~n ~make_body =
  let sched = Replay.replay session ~n ~make_body ~schedule:[] () in
  let counts =
    Array.init n (fun pid ->
        let before = Scheduler.steps_of sched pid in
        Scheduler.run_solo sched pid;
        Scheduler.steps_of sched pid - before)
  in
  ignore (Scheduler.finish sched);
  counts
