(* The execution engine.

   A process is an ordinary OCaml function over simulated registers; each
   register operation performs the [Session.Mem_op] effect.  The scheduler
   captures the one-shot continuation together with a full description of
   the enabled event (object id + primitive with operands), so a scheduling
   policy — in particular the paper's adversaries — can inspect every
   process's next event before deciding what to apply.  Applying an event
   (= [step]) is the unit of step complexity.

   A run can also be restarted at a point of another run ([restart]):
   fresh bodies are re-run through the events that run's trace holds,
   each answered from the trace (fast-forward) rather than scheduled
   and applied again.  The answer is given by this handler, under any
   handler the body installs itself, so a body that forwards its own
   operations (see [Faults.instrument]) sees every one of them.  A
   process that had returned at that point is not re-run at all: the
   trace holds all it did.  When the point lies on the trace of the run
   that just finished, the restart rewinds that trace in place, undoing
   its later events in the store, instead of rebuilding the point from
   the initial configuration. *)

type pending = {
  obj : int;
  prim : Event.prim;
  k : (Event.response, unit) Effect.Deep.continuation;
}

type state =
  | Not_started of (unit -> unit)
  | Pending of pending
  | Finished
  | Erased

type entry = {
  pid : int;
  mutable state : state;
  mutable steps : int;
  mutable logged : int;  (* events still to fast-forward through *)
  mutable next : int;    (* the next of them, counted among our events *)
  mutable returned : int;
      (* entries in the trace when the body returned; [max_int] before *)
}

type t = {
  session : Session.t;
  mutable entries : entry array;
  mutable n : int;
  trace : Trace.builder;
  initial : bool;
      (* opened by [restart], so the run began at the initial
         configuration and its trace accounts for the whole store *)
  mutable finished : bool;
}

exception Process_failure of int * exn

let open_run session trace ~initial =
  if Session.trace_builder session <> None then
    invalid_arg "Scheduler.create: a run is already in progress on this session";
  Session.set_in_run session true;
  Session.set_trace session (Some trace);
  Session.clear_pending_invokes session;
  { session; entries = [||]; n = 0; trace; initial; finished = false }

let create session = open_run session (Trace.builder ()) ~initial:false

let session t = t.session

let spawn t body =
  let pid = t.n in
  let entry =
    { pid; state = Not_started body; steps = 0; logged = 0; next = 0;
      returned = max_int }
  in
  if t.n = Array.length t.entries then begin
    let cap = max 8 (2 * t.n) in
    let entries = Array.make cap entry in
    Array.blit t.entries 0 entries 0 t.n;
    t.entries <- entries
  end;
  t.entries.(t.n) <- entry;
  t.n <- t.n + 1;
  pid

let get t pid =
  if pid < 0 || pid >= t.n then invalid_arg "Scheduler: bad pid";
  t.entries.(pid)

let handler t entry : (unit, unit) Effect.Deep.handler =
  { retc =
      (fun () ->
        entry.state <- Finished;
        entry.returned <- Trace.length t.trace);
    exnc = (fun e -> entry.state <- Finished; raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Session.Mem_op (obj, prim) ->
          Some
            (fun (k : (a, unit) Effect.Deep.continuation) ->
              if entry.logged > 0 then begin
                (* Fast-forward: the trace holds this event and the
                   annotations buffered before it. *)
                let response = Trace.response t.trace entry.pid entry.next in
                entry.next <- entry.next + 1;
                entry.logged <- entry.logged - 1;
                Session.drop_invokes t.session entry.pid;
                Effect.Deep.continue k response
              end
              else entry.state <- Pending { obj; prim; k })
        | _ -> None) }

(* Run a process body until its first shared-memory event that the trace
   does not hold is enabled (or it finishes without one).  Issues no
   event.  A process with logged events runs through them in
   fast-forward, where its annotations are in the trace already. *)
let ensure_started t entry =
  match entry.state with
  | Not_started body ->
    let session = t.session in
    let stop () =
      Session.set_fast_forward session false;
      Session.set_current_pid session (-1)
    in
    Session.set_current_pid session entry.pid;
    Session.set_fast_forward session (entry.logged > 0);
    (try Effect.Deep.match_with body () (handler t entry)
     with e -> stop (); raise (Process_failure (entry.pid, e)));
    stop ()
  | Pending _ | Finished | Erased -> ()

let enabled t pid =
  let entry = get t pid in
  ensure_started t entry;
  match entry.state with
  | Pending { obj; prim; _ } -> Some (obj, prim)
  | Not_started _ | Finished | Erased -> None

let is_active t pid =
  let entry = get t pid in
  ensure_started t entry;
  match entry.state with
  | Pending _ -> true
  | Not_started _ | Finished | Erased -> false

let active_pids t =
  let rec go pid acc =
    if pid < 0 then acc
    else go (pid - 1) (if is_active t pid then pid :: acc else acc)
  in
  go (t.n - 1) []

let step t pid =
  let entry = get t pid in
  ensure_started t entry;
  match entry.state with
  | Pending { obj; prim; k } ->
    let store = Session.store t.session in
    (* buffered operation invocations land just before the first step *)
    Session.flush_invokes t.session pid;
    let before = Store.get store obj in
    let response = Store.apply store obj prim in
    let after = Store.get store obj in
    let ev =
      Trace.add_mem t.trace ~pid ~obj ~obj_name:(Store.name store obj) ~prim
        ~response ~before ~after
    in
    entry.steps <- entry.steps + 1;
    (* The continuation's own handler moves the state to [Pending] (next
       event) or leaves this [Finished] (normal return). *)
    entry.state <- Finished;
    Session.set_current_pid t.session pid;
    (try Effect.Deep.continue k response
     with e ->
       Session.set_current_pid t.session (-1);
       raise (Process_failure (pid, e)));
    Session.set_current_pid t.session (-1);
    ev
  | Not_started _ -> assert false
  | Finished -> invalid_arg "Scheduler.step: process has finished"
  | Erased -> invalid_arg "Scheduler.step: process was erased"

let erase t pid =
  let entry = get t pid in
  (match entry.state with
   | Pending { k; _ } ->
     (* Unwind the continuation so resources are not leaked; our process
        bodies do not intercept [Erased]. *)
     (try Effect.Deep.discontinue k Session.Erased with _ -> ())
   | Not_started _ | Finished | Erased -> ());
  entry.state <- Erased

let steps_of t pid = (get t pid).steps

let is_finished t pid =
  match (get t pid).state with
  | Finished -> true
  | Not_started _ | Pending _ | Erased -> false

let event_count t = Trace.event_count t.trace

let entry_count t = Trace.length t.trace

(* A copy of the execution so far; the run remains in progress. *)
let current_trace t = Trace.finish t.trace

(* A second [finish] would close whatever run is open on the session by
   then, and name this run's trace as the one the store holds.  A body
   not started yet is discarded too: an inspection after the run would
   start it outside any run, applying its operations to the store. *)
let finish t =
  if t.finished then invalid_arg "Scheduler.finish: the run has finished";
  t.finished <- true;
  for pid = 0 to t.n - 1 do
    let entry = t.entries.(pid) in
    match entry.state with
    | Pending { k; _ } ->
      (try Effect.Deep.discontinue k Session.Erased with _ -> ());
      entry.state <- Erased
    | Not_started _ -> entry.state <- Erased
    | Finished | Erased -> ()
  done;
  Session.set_in_run t.session false;
  Session.set_trace t.session None;
  Session.clear_pending_invokes t.session;
  Session.set_latest t.session (if t.initial then Some t.trace else None);
  Trace.finish t.trace

(* {2 Restarting} *)

(* The first [len] entries of [log], as they were after [rewinds]
   rewinds of it.  [procs] are the run's processes, whose [returned] is
   set once. *)
type prefix = {
  log : Trace.builder;
  len : int;
  rewinds : int;
  procs : entry array;
}

let prefix t =
  { log = t.trace; len = Trace.length t.trace; rewinds = Trace.rewinds t.trace;
    procs = t.entries }

let initial = { log = Trace.builder (); len = 0; rewinds = 0; procs = [||] }

(* Had [pid], which has events in [p], returned when [p] was taken?  A
   process with events is started, so if it had not returned then, its
   body can only return after one more step, which adds an entry past
   [len]. *)
let returned_in p pid =
  pid < Array.length p.procs && p.procs.(pid).returned <= p.len

(* Open the run [restart] starts at [p], with the store at [p]'s point.
   Everything that can refuse the restart is checked before the store is
   touched.  If [p] lies on the trace of the run that finished last on
   this session, and the store has not changed since, the store holds
   that trace's end: undo its events back to [p] and reuse the trace.
   Otherwise copy [p]'s entries into a new trace and rebuild the store
   from the initial configuration; so does a restart with fewer
   processes than that trace has had, where the copy tells whether [p]
   holds events of a pid it does not spawn. *)
let open_at session ~n p =
  if not (Trace.intact p.log ~len:p.len ~rewinds:p.rewinds) then
    invalid_arg "Scheduler.restart: a later restart rewound this prefix's trace";
  let store = Session.store session in
  match Session.latest session with
  | Some b when b == p.log && Trace.processes b <= n ->
    let t = open_run session b ~initial:true in
    Trace.rewind b p.len ~undo:(fun ev -> Store.set store ev.obj ev.before);
    t
  | Some _ | None ->
    let b = Trace.prefix p.log p.len in
    if Trace.processes b > n then
      invalid_arg "Scheduler.restart: the prefix has events of a pid >= n";
    let t = open_run session b ~initial:true in
    Store.reset store;
    for i = 0 to p.len - 1 do
      match Trace.get b i with
      | Trace.Mem ev -> Store.set store ev.obj ev.after
      | Trace.Invoke _ | Trace.Return _ -> ()
    done;
    t

let restart session ~n ~make_body p =
  let t = open_at session ~n p in
  (* A process with events in [p] is fast-forwarded, unless it had
     returned: re-running it would rebuild nothing [p] lacks.  A body
     that fails here leaves no run open. *)
  (try
     for pid = 0 to n - 1 do
       let entry = t.entries.(spawn t (make_body pid)) in
       let logged = Trace.events_by t.trace pid in
       entry.logged <- logged;
       entry.steps <- logged
     done;
     for pid = 0 to n - 1 do
       let entry = t.entries.(pid) in
       if entry.logged > 0 then
         if returned_in p pid then begin
           entry.state <- Finished;
           entry.returned <- p.procs.(pid).returned;
           entry.logged <- 0
         end
         else ensure_started t entry
     done
   with e ->
     ignore (finish t : Trace.t);
     raise e);
  t

(* {2 Canned policies} *)

let run_solo ?(max_events = max_int) t pid =
  let budget = ref max_events in
  while is_active t pid && !budget > 0 do
    ignore (step t pid);
    decr budget
  done

let run_schedule t schedule =
  List.iter (fun pid -> ignore (step t pid)) schedule
