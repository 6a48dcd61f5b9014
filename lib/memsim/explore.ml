(* Exhaustive schedule exploration (bounded model checking).

   One walk serves every explorer: [run] below, [Dpor.run] and
   [Faults.explore].  It owns the run lifecycle; a client supplies only a
   node policy, which inspects the node's open run and either delivers
   the execution as maximal or names the children to explore, each with
   the policy state it starts in.

   Continuations are one-shot, so a run cannot be forked at a node.
   Instead a node hands its open run to its first child, which applies
   its one step to it, and a later sibling restarts at the node
   ([Scheduler.restart] at the node's recorded prefix), fast-forwarding
   the processes through their recorded events instead of scheduling
   them again.  Each edge of the schedule tree is thus stepped once; the
   unpruned tree is exponential in the processes' steps, affordable
   exactly in the regime where exhaustiveness is interesting (2-4
   processes, a few steps each).

   One case must not hand its run down.  Inspecting a node starts every
   process not yet started, and a process whose first operation issues
   no event records that operation's Invoke/Return annotations as it
   starts: in the open run they land before the child's step, while a
   replay of the child's prefix records them after it.  A node whose
   inspection recorded any trace entry therefore finishes its run and
   restarts every child from the trace as it was before the inspection,
   so each delivered trace equals the replay of its own schedule
   followed by one inspection. *)

type stats = { explored : int; truncated : bool }

let walk ?(max_schedules = 1_000_000) ?(max_events = 60) session ~n
    ~make_body ~root ~visit ~on_complete () =
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
  (* The node [sched] is at, [depth] steps deep, in policy state [state].
     Every path out of it finishes the run or hands it to a child. *)
  let rec node sched depth state =
    let entries = Scheduler.entry_count sched in
    let at = Scheduler.prefix sched in
    let live = ref (Some sched) in
    let descend pid state =
      if !continue then begin
        let run =
          match !live with
          | Some sched when Scheduler.entry_count sched <> entries ->
            finish sched;
            None
          | run -> run
        in
        live := None;
        child run at pid (depth + 1) state
      end
    in
    if visit sched ~depth state ~descend then begin
      let trace = finish_trace sched in
      incr explored;
      if not (on_complete trace) then continue := false
    end
    else Option.iter finish !live
  (* The child [pid]'s step leads to from a node whose prefix is [at]: on
     the node's open run [live] when given, else on a restart at [at]. *)
  and child live at pid depth state =
    if !explored >= max_schedules || depth > max_events then begin
      Option.iter finish live;
      truncated := true
    end
    else begin
      let sched = match live with Some sched -> sched | None -> restart at in
      ignore (Scheduler.step sched pid : Event.t);
      node sched depth state
    end
  in
  if max_schedules <= 0 || max_events < 0 then truncated := true
  else begin
    match node (restart Scheduler.initial) 0 root with
    | () -> ()
    | exception e ->
      Option.iter finish !held;
      raise e
  end;
  { explored = !explored; truncated = !truncated }

let run ?max_schedules ?max_events session ~n ~make_body ~on_complete () =
  walk ?max_schedules ?max_events session ~n ~make_body ~on_complete ~root:()
    ~visit:(fun sched ~depth:_ () ~descend ->
      match Scheduler.active_pids sched with
      | [] -> true
      | pids ->
        List.iter (fun pid -> descend pid ()) pids;
        false)
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
