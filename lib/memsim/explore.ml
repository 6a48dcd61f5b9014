(* Exhaustive schedule exploration (bounded model checking).

   Enumerate every interleaving of a small set of processes and hand each
   complete execution to a callback.  Continuations are one-shot, so a run
   cannot be forked at a node.  Instead the walk has [Dpor.run]'s shape: a
   node hands its open run to its first child, which applies its one step
   to it, and a later sibling restarts at the node ([Scheduler.restart] at
   the node's recorded prefix), fast-forwarding the processes through
   their recorded events instead of scheduling them again.  Each edge of
   the schedule tree is thus stepped once; the tree is exponential in
   the processes' steps, affordable exactly in the regime where
   exhaustiveness is interesting (2-4 processes, a few steps each).

   As in [Dpor.run], a node whose inspection recorded a trace entry (it
   started a process whose first operation issues no event) finishes its
   run and restarts every child from the trace as it was before the
   inspection, so each delivered trace equals the replay of its own
   schedule.

   A gate ([Faults.explore]) constrains which pids may step at a node.
   Its state is the scheduling point, the steps plus idle ticks elapsed:
   [settle] ticks it at a node, and the point it returns is saved beside
   the node.  A child's pid was chosen from the pids permitted there, and
   [settle] stops ticking at the first point where some pid is permitted,
   so the pid was permitted at no earlier point: the gate state is a
   function of the schedule alone, and a restarted child resumes it from
   the saved point. *)

type stats = { explored : int; truncated : bool }

let walk ?(max_schedules = 1_000_000) ?(max_events = 60) ~settle session ~n
    ~make_body ~on_complete () =
  let explored = ref 0 in
  let truncated = ref false in
  let continue = ref true in
  (* The run open on [session], if any: a body that raises leaves it to
     be finished before the exception goes on. *)
  let held = ref None in
  let restart p =
    let sched = Scheduler.restart session ~n ~make_body p in
    held := Some sched;
    sched
  in
  let finish_trace sched =
    held := None;
    Scheduler.finish sched
  in
  let finish sched = ignore (finish_trace sched : Trace.t) in
  (* The node [sched] is at, [len] steps deep, at scheduling point
     [point].  Every path out of it finishes the run or hands it to a
     child. *)
  let rec node sched point len =
    let entries = Scheduler.entry_count sched in
    let at = Scheduler.prefix sched in
    match settle sched point with
    | _, [] ->
      let trace = finish_trace sched in
      incr explored;
      if not (on_complete trace) then continue := false
    | point, pids ->
      let live =
        ref
          (if Scheduler.entry_count sched = entries then Some sched
           else (finish sched; None))
      in
      List.iter
        (fun pid ->
          if !continue then begin
            let run = !live in
            live := None;
            child run at point pid (len + 1)
          end)
        pids;
      Option.iter finish !live
  (* The child [pid]'s step leads to from a node whose prefix and settled
     point are [at] and [point]: on the node's open run [live] when
     given, else on a restart at [at]. *)
  and child live at point pid len =
    if !explored >= max_schedules || len > max_events then begin
      Option.iter finish live;
      truncated := true
    end
    else begin
      let sched = match live with Some sched -> sched | None -> restart at in
      ignore (Scheduler.step sched pid : Event.t);
      node sched (point + 1) len
    end
  in
  if max_schedules <= 0 || max_events < 0 then truncated := true
  else begin
    match node (restart Scheduler.initial) 0 0 with
    | () -> ()
    | exception e ->
      Option.iter finish !held;
      raise e
  end;
  { explored = !explored; truncated = !truncated }

let run ?max_schedules ?max_events session ~n ~make_body ~on_complete () =
  walk ?max_schedules ?max_events session ~n ~make_body ~on_complete
    ~settle:(fun sched point -> (point, Scheduler.active_pids sched))
    ()

(* Per-process event counts, each process run solo in pid order. *)
let solo_counts session ~n ~make_body =
  let sched = Replay.replay session ~n ~make_body ~schedule:[] () in
  Fun.protect
    ~finally:(fun () -> ignore (Scheduler.finish sched : Trace.t))
    (fun () ->
      Array.init n (fun pid ->
          let before = Scheduler.steps_of sched pid in
          Scheduler.run_solo sched pid;
          Scheduler.steps_of sched pid - before))
