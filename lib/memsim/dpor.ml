(* Dynamic partial-order reduction (Flanagan–Godefroid 2005) with
   persistent/backtrack sets and sleep sets.

   The naive explorer ([Explore.run]) enumerates every interleaving, which
   is hopeless beyond 2 processes with a handful of steps.  Most of those
   interleavings differ only by swapping adjacent independent events —
   events on different objects, or two reads of the same object — and so
   lead to indistinguishable executions.  DPOR explores at least one
   representative of every Mazurkiewicz trace (equivalence class modulo
   commuting independent events) and prunes the rest:

   - Two events are dependent iff they touch the same object and at least
     one of them writes or CASes ([dependent]).  This is the coarsest
     sound relation derivable from the static event descriptions the
     scheduler exposes ([Scheduler.enabled]): a failed CAS commutes with a
     read, but whether a CAS fails is only known after applying it, so CAS
     is conservatively write-like.

   - Happens-before is tracked with vector clocks ({!Vector_clock}): one
     clock per process (its causal past) and two per object (last
     write-like access; join of reads since).  An event and a later
     enabled transition are in *race* when they are dependent and the
     event is not in the transition's causal past — then reversing them
     may reach a different trace, so the pid (or, failing that, every
     enabled pid) is added to the backtrack set of the frame that executed
     the event (the persistent-set side).

   - Sleep sets prune the other direction: after a subtree for pid q is
     fully explored, q "sleeps" in the sibling subtrees until an event
     dependent with q's transition wakes it, so no trace is delivered
     twice.

   Continuations are one-shot (see [Explore]), so a run cannot be forked
   at a node.  Instead a node hands its open run to the first child it
   explores, which applies its one transition to it; only a later sibling
   replays its prefix from the initial configuration.  That is one replay
   per branch, where the naive explorer replays at every node.

   One case must not hand its run down.  Inspecting the enabled set starts
   every process not yet started, and a process whose first operation
   issues no event records that operation's Invoke/Return annotations as
   it starts: in the open run they land before the child's transition,
   while a replay of the child's prefix records them after it.  A node
   whose inspection recorded any trace entry therefore finishes its run
   and replays every child, so each delivered trace equals the replay of
   its own schedule followed by one inspection. *)

module IMap = Map.Make (Int)

type stats = {
  explored : int;
  sleep_blocked : int;
  truncated : bool;
}

let dependent (obj1, prim1) (obj2, prim2) =
  obj1 = obj2 && (Event.prim_writes prim1 || Event.prim_writes prim2)

(* A process's enabled transition, as exposed before it is applied. *)
type next_ev = { pid : int; obj : int; writes : bool; prim : Event.prim }

(* One executed event of the current stack (newest first). *)
type sev = {
  depth : int;    (* index of the frame that executed it *)
  spid : int;
  sobj : int;
  swrites : bool;
  slocal : int;   (* 1-based index among spid's events *)
}

(* The exploration frame at one stack depth.  [backtrack] is mutated by
   race detection in descendants. *)
type frame = {
  enabled : next_ev list;   (* ascending pid *)
  mutable backtrack : int;  (* pid bitmask *)
  mutable done_ : int;      (* pid bitmask *)
}

let bit pid = 1 lsl pid
let mem pid mask = mask land bit pid <> 0

let lowest_bit mask =
  if mask = 0 then None
  else begin
    let i = ref 0 in
    while not (mem !i mask) do incr i done;
    Some !i
  end

let run ?(max_schedules = 1_000_000) ?(max_events = 200) session ~n ~make_body
    ~on_complete () =
  if n > 62 then invalid_arg "Dpor.run: at most 62 processes";
  let explored = ref 0 in
  let sleep_blocked = ref 0 in
  let truncated = ref false in
  let continue = ref true in
  let dummy = { enabled = []; backtrack = 0; done_ = 0 } in
  let frames = Array.make (max_events + 1) dummy in
  let bottom = Vector_clock.bottom n in
  let obj_clock map obj =
    match IMap.find_opt obj map with Some c -> c | None -> bottom
  in
  let enabled_of sched =
    let rec go pid acc =
      if pid < 0 then acc
      else
        go (pid - 1)
          (match Scheduler.enabled sched pid with
           | Some (obj, prim) ->
             { pid; obj; writes = Event.prim_writes prim; prim } :: acc
           | None -> acc)
    in
    go (n - 1) []
  in
  (* Race detection (the persistent-set side).  [ne] is enabled at the
     current node, whose stack is [sevs] (newest first) and whose
     per-process clocks are [cp].  Find the latest executed event that is
     dependent with [ne] and not in [ne.pid]'s causal past; reversing the
     pair may reach a new trace, so revive exploration at that frame. *)
  let detect_races sevs (cp : Vector_clock.t array) ne =
    let p = ne.pid in
    let race =
      List.find_opt
        (fun e ->
          e.spid <> p
          && e.sobj = ne.obj
          && (e.swrites || ne.writes)
          && not (Vector_clock.event_leq ~pid:e.spid ~local:e.slocal cp.(p)))
        sevs
    in
    match race with
    | None -> ()
    | Some e ->
      let fr = frames.(e.depth) in
      (* Processes whose transition at [fr] starts a causal chain into
         [ne]: scheduling one of them there suffices to reach the reversed
         trace. *)
      let candidates =
        List.filter
          (fun (cand : next_ev) ->
            cand.pid = p
            || List.exists
                 (fun j ->
                   j.depth > e.depth && j.spid = cand.pid
                   && Vector_clock.event_leq ~pid:j.spid ~local:j.slocal cp.(p))
                 sevs)
          fr.enabled
      in
      (match candidates with
       | [] ->
         (* No single pid provably reaches the reversal: fall back to the
            whole enabled set (still a persistent set). *)
         List.iter (fun (c : next_ev) -> fr.backtrack <- fr.backtrack lor bit c.pid)
           fr.enabled
       | cs ->
         let q =
           if List.exists (fun (c : next_ev) -> c.pid = p) cs then p
           else (List.hd cs).pid
         in
         fr.backtrack <- fr.backtrack lor bit q)
  in
  let finish sched = ignore (Scheduler.finish sched : Trace.t) in
  (* Depth-first exploration, called only while [!continue].  [live] is
     the parent's open run, at the parent's node: this node applies its
     transition, the head of [rev_prefix], to it instead of replaying.
     Every path out of a node finishes the run it holds or hands it to a
     child.  [cp] maps each pid to the clock of its last event; [ow] maps
     each object to the clock of its last write-like event, [ord] to the
     join of its reads since then; [sleep] is the pid bitmask of sleeping
     transitions. *)
  let rec explore live rev_prefix depth sevs cp ow ord sleep =
    if !explored >= max_schedules || depth > max_events then begin
      Option.iter finish live;
      truncated := true
    end
    else begin
      let sched =
        match live with
        | Some sched ->
          ignore (Scheduler.step sched (List.hd rev_prefix) : Event.t);
          sched
        | None ->
          Replay.replay session ~n ~make_body ~schedule:(List.rev rev_prefix)
            ()
      in
      let entries = Scheduler.entry_count sched in
      match enabled_of sched with
      | [] ->
        let trace = Scheduler.finish sched in
        incr explored;
        if not (on_complete trace) then continue := false
      | enabled ->
        let quiet = Scheduler.entry_count sched = entries in
        List.iter (detect_races sevs cp) enabled;
        (match List.find_opt (fun ne -> not (mem ne.pid sleep)) enabled with
         | None ->
           (* Everything enabled sleeps: every continuation from here is a
              reordering of a trace delivered elsewhere. *)
           finish sched;
           incr sleep_blocked
         | Some first ->
           let fr = { enabled; backtrack = bit first.pid; done_ = 0 } in
           frames.(depth) <- fr;
           (* The loop's first child is [first], which is awake, so the run
              goes to it unless the inspection recorded an entry. *)
           let live =
             ref (if quiet then Some sched else (finish sched; None))
           in
           let zs = ref sleep in
           let rec loop () =
             if !continue then
               match lowest_bit (fr.backtrack land lnot fr.done_) with
               | None -> ()
               | Some q ->
                 fr.done_ <- fr.done_ lor bit q;
                 if not (mem q !zs) then begin
                   let ne = List.find (fun ne -> ne.pid = q) enabled in
                   let local = Vector_clock.get cp.(q) q + 1 in
                   let cv = Vector_clock.join cp.(q) (obj_clock ow ne.obj) in
                   let cv =
                     if ne.writes then
                       Vector_clock.join cv (obj_clock ord ne.obj)
                     else cv
                   in
                   let cv = Vector_clock.tick cv q ~local in
                   let cp' = Array.copy cp in
                   cp'.(q) <- cv;
                   let ow' = if ne.writes then IMap.add ne.obj cv ow else ow in
                   let ord' =
                     if ne.writes then IMap.remove ne.obj ord
                     else
                       IMap.add ne.obj
                         (Vector_clock.join cv (obj_clock ord ne.obj))
                         ord
                   in
                   let sev =
                     { depth; spid = q; sobj = ne.obj; swrites = ne.writes;
                       slocal = local }
                   in
                   (* Siblings keep sleeping only while independent of the
                      transition just taken. *)
                   let sleep' =
                     List.fold_left
                       (fun acc r ->
                         if
                           mem r.pid !zs
                           && not (dependent (r.obj, r.prim) (ne.obj, ne.prim))
                         then acc lor bit r.pid
                         else acc)
                       0 enabled
                   in
                   let run = !live in
                   live := None;
                   explore run (q :: rev_prefix) (depth + 1) (sev :: sevs) cp'
                     ow' ord' sleep';
                   zs := !zs lor bit q
                 end;
                 loop ()
           in
           loop ())
    end
  in
  explore None [] 0 [] (Array.make n bottom) IMap.empty IMap.empty 0;
  { explored = !explored; sleep_blocked = !sleep_blocked;
    truncated = !truncated }
