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

(* Mutable builder used by a running scheduler.  Besides the entries it
   keeps, per process, the index of each of its events in order, so the
   scheduler finds a process's k-th response without a scan; and, per
   entry, the number of rewinds the builder had undergone when the entry
   was added, so a point of the builder that a later rewind cut off is
   recognised. *)
type builder = {
  mutable buf : entry array;
  mutable stamps : int array;  (* per entry: [rewinds] when it was added *)
  mutable len : int;
  mutable events : int;  (* number of Mem entries, = next event seq *)
  mutable at : int array array;  (* per pid: entry index of its events *)
  mutable counts : int array;    (* per pid: its events so far *)
  mutable rewinds : int;
}

let dummy = Invoke { pid = -1; op = ""; arg = Bot }

let builder () =
  { buf = Array.make 64 dummy; stamps = Array.make 64 0; len = 0; events = 0;
    at = [||]; counts = [||]; rewinds = 0 }

(* Record that entry [i] is [pid]'s next event. *)
let note b pid i =
  if pid >= Array.length b.counts then begin
    (* exactly [pid + 1] slots: [processes] is one past the largest pid
       that has had events *)
    let cap = pid + 1 in
    let at = Array.make cap [||] and counts = Array.make cap 0 in
    Array.blit b.at 0 at 0 (Array.length b.at);
    Array.blit b.counts 0 counts 0 (Array.length b.counts);
    b.at <- at;
    b.counts <- counts
  end;
  let k = b.counts.(pid) in
  if k = Array.length b.at.(pid) then begin
    let grown = Array.make (max 16 (2 * k)) 0 in
    Array.blit b.at.(pid) 0 grown 0 k;
    b.at.(pid) <- grown
  end;
  b.at.(pid).(k) <- i;
  b.counts.(pid) <- k + 1

let push b entry =
  if b.len = Array.length b.buf then begin
    let buf = Array.make (2 * b.len) entry in
    let stamps = Array.make (2 * b.len) 0 in
    Array.blit b.buf 0 buf 0 b.len;
    Array.blit b.stamps 0 stamps 0 b.len;
    b.buf <- buf;
    b.stamps <- stamps
  end;
  (match entry with
   | Mem ev ->
     note b ev.pid b.len;
     b.events <- b.events + 1
   | Invoke _ | Return _ -> ());
  b.buf.(b.len) <- entry;
  b.stamps.(b.len) <- b.rewinds;
  b.len <- b.len + 1

let add_mem b ~pid ~obj ~obj_name ~prim ~response ~before ~after =
  let ev =
    { Event.seq = b.events; pid; obj; obj_name; prim; response; before; after }
  in
  push b (Mem ev);
  ev

let add_invoke b ~pid ~op ~arg = push b (Invoke { pid; op; arg })
let add_return b ~pid ~op ~result = push b (Return { pid; op; result })

let event_count b = b.events
let length b = b.len

let get b i =
  if i < 0 || i >= b.len then invalid_arg "Trace.get: no such entry";
  b.buf.(i)

let events_by b pid =
  if pid < 0 then invalid_arg "Trace.events_by: bad pid";
  if pid < Array.length b.counts then b.counts.(pid) else 0

let processes b = Array.length b.counts

let response b pid k =
  if k < 0 || k >= events_by b pid then invalid_arg "Trace.response: no such event";
  match b.buf.(b.at.(pid).(k)) with
  | Mem ev -> ev.response
  | Invoke _ | Return _ -> assert false

(* Entries are immutable, so a copy shares them: later additions to
   either builder do not reach the other. *)
let prefix b len =
  if len < 0 || len > b.len then invalid_arg "Trace.prefix: bad length";
  let c = builder () in
  for i = 0 to len - 1 do
    push c b.buf.(i)
  done;
  c

let rewinds b = b.rewinds

(* A point of [b] of [len] entries, taken after [rewinds] rewinds, still
   holds its entries if none of them was cut off since: a rewind below
   [len] followed by additions up to [len] re-stamps entry [len - 1]. *)
let intact b ~len ~rewinds =
  len >= 0 && len <= b.len && (len = 0 || b.stamps.(len - 1) <= rewinds)

let rewind b len ~undo =
  if len < 0 || len > b.len then invalid_arg "Trace.rewind: bad length";
  for i = b.len - 1 downto len do
    match b.buf.(i) with
    | Mem ev ->
      undo ev;
      b.counts.(ev.pid) <- b.counts.(ev.pid) - 1;
      b.events <- b.events - 1
    | Invoke _ | Return _ -> ()
  done;
  b.len <- len;
  b.rewinds <- b.rewinds + 1

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
