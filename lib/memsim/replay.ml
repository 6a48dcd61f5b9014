(* Erase-and-replay.

   The paper's constructions repeatedly *remove* processes from an execution
   (Lemma 2, Claim 1) and continue from the resulting shorter execution.  We
   realize this honestly: reset the store to the initial configuration,
   re-spawn fresh process bodies, and replay the recorded schedule with the
   erased processes' entries filtered out.  Because processes are
   deterministic, the surviving processes re-issue the same events whenever
   the removal respects Lemma 2's awareness condition — and
   [indistinguishable_for] checks exactly that, turning the lemma into a
   runtime-verified statement. *)

let erase_from_schedule schedule ~erased =
  List.filter (fun pid -> not (List.mem pid erased)) schedule

(* Start a fresh run of [n] processes on [session] (store reset to the
   initial configuration) and replay [schedule].  The run is left open so
   the caller can inspect enabled events and keep extending it, unless
   the replay raises: then the run is finished first.  The store is reset
   only once [Scheduler.create] has accepted the run: a run already open
   on the session keeps its store. *)
let replay session ~n ~make_body ~schedule () =
  let sched = Scheduler.create session in
  Store.reset (Session.store session);
  for pid = 0 to n - 1 do
    let spawned = Scheduler.spawn sched (make_body pid) in
    assert (spawned = pid)
  done;
  match Scheduler.run_schedule sched schedule with
  | () -> sched
  | exception e ->
    ignore (Scheduler.finish sched : Trace.t);
    raise e

(* Do the events of [pid] in [new_] match its events in [old_]
   (same objects, primitives and responses), up to the length present in
   [new_]?  This is the indistinguishability guarantee of Lemma 2. *)
let indistinguishable_for ~old_trace ~new_trace ~pid =
  let evs_old = Trace.events_of old_trace pid in
  let evs_new = Trace.events_of new_trace pid in
  if Array.length evs_new > Array.length evs_old then
    Error
      (Printf.sprintf "p%d issued %d events after replay but only %d before"
         pid (Array.length evs_new) (Array.length evs_old))
  else begin
    let mismatch = ref None in
    Array.iteri
      (fun i (e_new : Event.t) ->
        if !mismatch = None then begin
          let e_old = evs_old.(i) in
          let same =
            e_old.Event.obj = e_new.Event.obj
            && e_old.Event.prim = e_new.Event.prim
            && e_old.Event.response = e_new.Event.response
          in
          if not same then
            mismatch :=
              Some
                (Fmt.str "p%d event %d differs: was %a, replayed as %a" pid i
                   Event.pp e_old Event.pp e_new)
        end)
      evs_new;
    match !mismatch with None -> Ok () | Some m -> Error m
  end

let indistinguishable_for_all ~old_trace ~new_trace ~pids =
  let rec go = function
    | [] -> Ok ()
    | pid :: rest -> (
      match indistinguishable_for ~old_trace ~new_trace ~pid with
      | Ok () -> go rest
      | Error _ as e -> e)
  in
  go pids
