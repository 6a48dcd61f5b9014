(* Executions.

   A trace is the sequence of shared-memory events of one run, interleaved
   with operation-boundary annotations (invocations and responses of
   high-level operations).  Annotations are local computation: they are not
   events and do not count as steps; they exist so that linearizability
   checking can recover the history of high-level operations. *)

type entry =
  | Mem of Event.t
  | Invoke of { pid : int; op : string; arg : Simval.t }
  | Return of { pid : int; op : string; result : Simval.t }

type t = { entries : entry array }

(* Mutable builder used by a running scheduler. *)
type builder = {
  mutable buf : entry array;
  mutable len : int;
  mutable events : int;  (* number of Mem entries, = next event seq *)
}

let builder () = { buf = Array.make 64 (Invoke { pid = -1; op = ""; arg = Bot }); len = 0; events = 0 }

let push b entry =
  if b.len = Array.length b.buf then begin
    let buf = Array.make (2 * b.len) entry in
    Array.blit b.buf 0 buf 0 b.len;
    b.buf <- buf
  end;
  b.buf.(b.len) <- entry;
  b.len <- b.len + 1

let add_mem b ~pid ~obj ~obj_name ~prim ~response ~before ~after =
  let ev =
    { Event.seq = b.events; pid; obj; obj_name; prim; response; before; after }
  in
  push b (Mem ev);
  b.events <- b.events + 1;
  ev

let add_invoke b ~pid ~op ~arg = push b (Invoke { pid; op; arg })
let add_return b ~pid ~op ~result = push b (Return { pid; op; result })

let event_count b = b.events
let length b = b.len

let get b i =
  if i < 0 || i >= b.len then invalid_arg "Trace.get: no such entry";
  b.buf.(i)

(* Entries are immutable, so a copy shares them: later additions to
   either builder do not reach the other. *)
let prefix b len =
  if len < 0 || len > b.len then invalid_arg "Trace.prefix: bad length";
  let buf = Array.make (max 64 (2 * len)) b.buf.(0) in
  Array.blit b.buf 0 buf 0 len;
  (* the last event's sequence number counts the events before it *)
  let rec events i =
    if i < 0 then 0
    else
      match buf.(i) with
      | Mem e -> e.seq + 1
      | Invoke _ | Return _ -> events (i - 1)
  in
  { buf; len; events = events (len - 1) }

let finish b = { entries = Array.sub b.buf 0 b.len }

let entries t = t.entries

let events t =
  Array.of_list
    (List.filter_map
       (function Mem e -> Some e | Invoke _ | Return _ -> None)
       (Array.to_list t.entries))

let events_of t pid =
  Array.of_list
    (List.filter_map
       (function Mem e when e.Event.pid = pid -> Some e | Mem _ | Invoke _ | Return _ -> None)
       (Array.to_list t.entries))

let step_count t pid = Array.length (events_of t pid)

(* The schedule of an execution: the sequence of pids of its events.  A
   deterministic process re-issues the same events when the same schedule is
   replayed, which is how executions are reconstructed after erasure. *)
let schedule t =
  Array.to_list (Array.map (fun (e : Event.t) -> e.pid) (events t))

let pids t =
  let tbl = Hashtbl.create 16 in
  Array.iter (fun (e : Event.t) -> Hashtbl.replace tbl e.pid ()) (events t);
  List.sort Int.compare (Hashtbl.fold (fun pid () acc -> pid :: acc) tbl [])

let pp_entry ppf = function
  | Mem e -> Event.pp ppf e
  | Invoke { pid; op; arg } -> Fmt.pf ppf "     p%d invokes %s(%a)" pid op Simval.pp arg
  | Return { pid; op; result } -> Fmt.pf ppf "     p%d returns %s = %a" pid op Simval.pp result

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(array ~sep:cut pp_entry) t.entries
