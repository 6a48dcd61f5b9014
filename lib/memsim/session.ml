(* A session ties together one store of base objects with the run context of
   the scheduler currently executing on it (if any).

   Shared-memory operations issued while a scheduler run is in progress are
   routed through effects so the scheduler controls their interleaving.
   Operations issued outside any run ("direct mode" — e.g. sequential tests,
   or inspecting final values) are applied immediately; they are still
   counted in [direct_steps] so that sequential step-complexity measurements
   need no scheduler. *)

type t = {
  store : Store.t;
  mutable in_run : bool;            (* a scheduler run is in progress *)
  mutable current_pid : int;        (* pid whose code is executing, -1 if none *)
  mutable trace : Trace.builder option;
  mutable direct_steps : int;       (* events applied in direct mode *)
  pending_invokes : (int, (string * Simval.t) list) Hashtbl.t;
      (* Invoke annotations buffered until the process's next *event*.  A
         process body starts running when the scheduler first inspects it,
         which may be long before its first step is scheduled; recording
         the invocation at the first step keeps operation intervals tight.
         This is sound: the adversary may delay a process arbitrarily
         between its invocation and its first step, so the tightened
         history corresponds to a legal execution. *)
  mutable fast_forward : bool;
      (* The scheduler is re-running the current process through events
         its trace already holds, so its annotations are there too. *)
}

type _ Effect.t +=
  | Mem_op : int * Event.prim -> Event.response Effect.t

exception Erased
(* Raised into a process continuation to discard it (live erasure). *)

let create () =
  { store = Store.create ();
    in_run = false;
    current_pid = -1;
    trace = None;
    direct_steps = 0;
    pending_invokes = Hashtbl.create 16;
    fast_forward = false }

let store t = t.store

let alloc t ~name init = Store.alloc t.store ~name init

let current_pid t = t.current_pid

let reset_steps t = t.direct_steps <- 0
let direct_steps t = t.direct_steps

(* Entry point used by Smem.Sim_memory: one shared-memory event. *)
let mem_op t obj prim =
  if t.in_run then Effect.perform (Mem_op (obj, prim))
  else begin
    t.direct_steps <- t.direct_steps + 1;
    Store.apply t.store obj prim
  end

(* Operation-boundary annotations; recorded only while a run is in
   progress (histories are only needed for concurrent executions). *)
let flush_invokes t pid =
  match t.trace with
  | Some b -> (
    match Hashtbl.find_opt t.pending_invokes pid with
    | Some pending ->
      List.iter
        (fun (op, arg) -> Trace.add_invoke b ~pid ~op ~arg)
        (List.rev pending);
      Hashtbl.remove t.pending_invokes pid
    | None -> ())
  | None -> ()

let drop_invokes t pid = Hashtbl.remove t.pending_invokes pid

let annotate_invoke t ~op ~arg =
  match t.trace with
  | Some _ when t.current_pid >= 0 ->
    let pid = t.current_pid in
    let pending =
      Option.value ~default:[] (Hashtbl.find_opt t.pending_invokes pid)
    in
    Hashtbl.replace t.pending_invokes pid ((op, arg) :: pending)
  | Some _ | None -> ()

let annotate_return t ~op ~result =
  match t.trace with
  | Some _ when t.current_pid >= 0 && t.fast_forward ->
    (* the operation's invocation and return are both in the trace *)
    drop_invokes t t.current_pid
  | Some b when t.current_pid >= 0 ->
    (* an operation that issued no events still needs its invoke first *)
    flush_invokes t t.current_pid;
    Trace.add_return b ~pid:t.current_pid ~op ~result
  | Some _ | None -> ()

let clear_pending_invokes t = Hashtbl.reset t.pending_invokes

let set_in_run t b = t.in_run <- b
let set_current_pid t pid = t.current_pid <- pid
let set_trace t b = t.trace <- b
let set_fast_forward t b = t.fast_forward <- b
let trace_builder t = t.trace
