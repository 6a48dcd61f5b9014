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
  mutable pending : (string * Simval.t) list array;
      (* Per pid, newest first: invoke annotations buffered until the
         process's next *event*.  A process body starts running when the
         scheduler first inspects it, which may be long before its first
         step is scheduled; recording the invocation at the first step
         keeps operation intervals tight.  This is sound: the adversary
         may delay a process arbitrarily between its invocation and its
         first step, so the tightened history corresponds to a legal
         execution. *)
  mutable buffered : int;
      (* pids whose [pending] slot is non-empty: with none, the
         scheduler's per-event calls below cost one test *)
  mutable fast_forward : bool;
      (* The scheduler is re-running the current process through events
         its trace already holds, so its annotations are there too. *)
  mutable latest : Trace.builder option;
      (* The trace of the latest finished run, if that run began at the
         initial configuration ... *)
  mutable latest_mutations : int;
      (* ... and the store's mutation count when it finished. *)
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
    pending = [||];
    buffered = 0;
    fast_forward = false;
    latest = None;
    latest_mutations = 0 }

let store t = t.store

let alloc t ~name init = Store.alloc t.store ~name init

let current_pid t = t.current_pid

let reset_steps t = t.direct_steps <- 0
let direct_steps t = t.direct_steps

(* The three shared-memory events, which Smem.Sim_memory is written over:
   inside a run one [Mem_op] effect, outside one the store operation
   itself, with no [Event.prim] or [Event.response] built. *)
let read t obj =
  if t.in_run then
    match Effect.perform (Mem_op (obj, Event.Read)) with
    | Event.RVal v -> v
    | Event.RAck | Event.RBool _ -> assert false
  else begin
    t.direct_steps <- t.direct_steps + 1;
    Store.get t.store obj
  end

let write t obj v =
  if t.in_run then
    match Effect.perform (Mem_op (obj, Event.Write v)) with
    | Event.RAck -> ()
    | Event.RVal _ | Event.RBool _ -> assert false
  else begin
    t.direct_steps <- t.direct_steps + 1;
    Store.set t.store obj v
  end

let cas t obj ~expected ~desired =
  if t.in_run then
    match Effect.perform (Mem_op (obj, Event.Cas { expected; desired })) with
    | Event.RBool b -> b
    | Event.RVal _ | Event.RAck -> assert false
  else begin
    t.direct_steps <- t.direct_steps + 1;
    Store.cas t.store obj ~expected ~desired
  end

(* Operation-boundary annotations; recorded only while a run is in
   progress (histories are only needed for concurrent executions). *)

(* Empty [pid]'s slot, returning what it held. *)
let take_pending t pid =
  if t.buffered = 0 || pid >= Array.length t.pending then []
  else
    match t.pending.(pid) with
    | [] -> []
    | slot ->
      t.pending.(pid) <- [];
      t.buffered <- t.buffered - 1;
      slot

let flush_invokes t pid =
  match take_pending t pid with
  | [] -> ()
  | slot -> (
    match t.trace with
    | Some b ->
      List.iter (fun (op, arg) -> Trace.add_invoke b ~pid ~op ~arg)
        (List.rev slot)
    | None -> ())

let drop_invokes t pid =
  ignore (take_pending t pid : (string * Simval.t) list)

let annotate_invoke t ~op ~arg =
  match t.trace with
  | Some _ when t.current_pid >= 0 ->
    let pid = t.current_pid in
    let len = Array.length t.pending in
    if pid >= len then begin
      let grown = Array.make (max 8 (max (pid + 1) (2 * len))) [] in
      Array.blit t.pending 0 grown 0 len;
      t.pending <- grown
    end;
    (match t.pending.(pid) with
     | [] -> t.buffered <- t.buffered + 1
     | _ :: _ -> ());
    t.pending.(pid) <- (op, arg) :: t.pending.(pid)
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

let clear_pending_invokes t =
  if t.buffered > 0 then begin
    Array.fill t.pending 0 (Array.length t.pending) [];
    t.buffered <- 0
  end

let set_in_run t b = t.in_run <- b
let set_current_pid t pid = t.current_pid <- pid
let set_trace t b = t.trace <- b
let set_fast_forward t b = t.fast_forward <- b
let trace_builder t = t.trace

let set_latest t b =
  t.latest <- b;
  t.latest_mutations <- Store.mutations t.store

let latest t =
  if Store.mutations t.store = t.latest_mutations then t.latest else None
