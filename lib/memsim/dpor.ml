(* Dynamic partial-order reduction (Flanagan–Godefroid 2005) with
   persistent/backtrack sets and sleep sets, as a node policy over
   [Explore.walk]: the walk owns the runs (restarts, hand-downs,
   truncation, finishing), and this module only decides which children
   a node explores and the sleep set each starts with.

   The naive explorer ([Explore.run]) enumerates every interleaving, which
   is hopeless beyond 2 processes with a handful of steps.  Most of those
   interleavings differ only by swapping adjacent independent events —
   events on different objects, or two reads of the same object — and so
   lead to indistinguishable executions.  DPOR aims to explore one
   representative of every Mazurkiewicz trace (equivalence class modulo
   commuting independent events) and to prune the rest:

   - Two events are dependent iff they touch the same object and at least
     one of them writes or CASes ([dependent]).  This is the coarsest
     sound relation derivable from the static event descriptions the
     scheduler exposes ([Scheduler.enabled]): a failed CAS commutes with a
     read, but whether a CAS fails is only known after applying it, so CAS
     is conservatively write-like.

   - Happens-before is tracked with vector clocks: one clock per process
     (its causal past) and two per object (last write-like access; join of
     reads since).  An event and a later enabled transition are in *race*
     when they are dependent and the event is not in the transition's
     causal past — then reversing them may reach a different trace, so the
     pid (or, failing that, every enabled pid) is added to the backtrack
     set of the frame that executed the event (the persistent-set side).

   - Sleep sets prune the other direction: after a subtree for pid q is
     fully explored, q "sleeps" in the sibling subtrees until an event
     dependent with q's transition wakes it, so no trace is delivered
     twice.

   This engine misses classes of some programs over several objects:
   [revive] can add a pid to the backtrack set of a frame whose entry
   sleep set holds it, a sleeping pid is never explored there, and the
   reversed race is dropped.

   The state is flat.  Each depth of the current path owns one [level],
   reused by every node at that depth: the node's clock matrix (copied
   into the child's level when a transition is taken), its enabled
   transitions and backtracking frame, and the transition taken to the
   child.  The object clocks are arrays indexed by object id, changed in
   place by a transition and restored when its subtree is done.  The
   executed events on each object form a chain through the levels, so
   race detection scans only the events on the transition's object. *)

type stats = {
  explored : int;
  sleep_blocked : int;
  truncated : bool;
}

let dependent (obj1, prim1) (obj2, prim2) =
  obj1 = obj2 && (Event.prim_writes prim1 || Event.prim_writes prim2)

let bit pid = 1 lsl pid
let mem pid mask = mask land bit pid <> 0

(* The lowest pid of a non-empty mask. *)
let lowest mask =
  let rec go i = if mem i mask then i else go (i + 1) in
  go 0

(* The exploration state at one depth of the current path. *)
type level = {
  clocks : int array;
      (* n × n: row q ([q * n ..]) is the clock of q's last event, whose
         entry r counts r's events that happen before it; entry q counts
         q's events *)
  objs : int array;          (* object of each enabled pid's transition *)
  mutable enabled : int;     (* pid bitmask *)
  mutable writers : int;     (* enabled pids whose transition writes *)
  mutable backtrack : int;   (* pid bitmask, grown by race detection *)
  mutable done_ : int;       (* pid bitmask *)
  mutable pid : int;         (* the transition taken to the child *)
  mutable prev : int;        (* level of the previous event on its object *)
  saved : int array;         (* its object's two clocks before it *)
}

type state = {
  n : int;
  mutable levels : level array;
  mutable wclock : int array;  (* object × n: its last write-like event *)
  mutable rclock : int array;  (* object × n: join of its reads since *)
  mutable last : int array;    (* object: level of its latest event, or -1 *)
}

let level st d =
  let ls = st.levels in
  if d < Array.length ls then ls.(d)
  else begin
    let n = st.n in
    let fresh () =
      { clocks = Array.make (n * n) 0; objs = Array.make n 0; enabled = 0;
        writers = 0; backtrack = 0; done_ = 0; pid = 0; prev = -1;
        saved = Array.make (2 * n) 0 }
    in
    let grown =
      Array.init (max 16 (2 * d)) (fun i ->
          if i < Array.length ls then ls.(i) else fresh ())
    in
    st.levels <- grown;
    grown.(d)
  end

(* Objects can be allocated mid-run (lazily built cells), so the object
   tables grow to the store's size. *)
let reserve st objects =
  let cap = Array.length st.last in
  if objects > cap then begin
    let cap = max objects (2 * cap) in
    let grow a per fill =
      let a' = Array.make (cap * per) fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    st.wclock <- grow st.wclock st.n 0;
    st.rclock <- grow st.rclock st.n 0;
    st.last <- grow st.last 1 (-1)
  end

(* Inspect every process, highest pid first. *)
let inspect st sched lv =
  let enabled = ref 0 and writers = ref 0 in
  for pid = st.n - 1 downto 0 do
    match Scheduler.enabled sched pid with
    | Some (obj, prim) ->
      enabled := !enabled lor bit pid;
      lv.objs.(pid) <- obj;
      if Event.prim_writes prim then writers := !writers lor bit pid
    | None -> ()
  done;
  lv.enabled <- !enabled;
  lv.writers <- !writers

(* The event at level [d] races with the transition of [p], whose clock
   is row [row] of [cp]: revive exploration at [d] by adding to its
   backtrack set.  Processes whose transition at [d] starts a causal
   chain into [p]'s — those with an event after [d] that [p]'s clock
   counts — suffice to reach the reversed trace; [p] itself is
   preferred, then the lowest such pid. *)
let revive st d p cp row =
  let n = st.n in
  let fr = st.levels.(d) in
  if mem p fr.enabled then fr.backtrack <- fr.backtrack lor bit p
  else begin
    let after = st.levels.(d + 1).clocks in
    let rec first c =
      if c = n then -1
      else if mem c fr.enabled && after.((c * n) + c) < cp.(row + c) then c
      else first (c + 1)
    in
    match first 0 with
    | -1 ->
      (* No single pid provably reaches the reversal: fall back to the
         whole enabled set (still a persistent set). *)
      fr.backtrack <- fr.backtrack lor fr.enabled
    | c -> fr.backtrack <- fr.backtrack lor bit c
  end

(* Race detection (the persistent-set side) for the transition of [p],
   enabled at level [depth]: the latest executed event that is dependent
   with it and not in [p]'s causal past.  Only events on the same object
   are dependent, and that object's chain holds them newest first.  A
   write-like event in [p]'s past ends the scan: every earlier event on
   the object happens before it. *)
let detect_race st depth p =
  let n = st.n in
  let lv = st.levels.(depth) in
  let w = mem p lv.writers in
  let cp = lv.clocks and row = p * n in
  let rec scan d =
    if d >= 0 then begin
      let e = st.levels.(d) in
      let s = e.pid in
      let ew = mem s e.writers in
      let past = e.clocks.((s * n) + s) < cp.(row + s) in
      if s <> p && (ew || w) && not past then revive st d p cp row
      else if not (ew && past) then scan e.prev
    end
  in
  scan st.last.(lv.objs.(p))

(* Take [q]'s transition from level [depth]: fill the child's clocks and
   update the object's, saving what [untake] restores.  Rows are copied
   by loops over the [int array]s, which store without a write barrier;
   [Array.blit] is a C call that runs one on every element of these
   long-lived arrays. *)
let take st depth q =
  let n = st.n in
  let lv = st.levels.(depth) in
  let cp = (level st (depth + 1)).clocks in
  let w = mem q lv.writers in
  let o = lv.objs.(q) in
  let ob = o * n and row = q * n in
  let clocks = lv.clocks and saved = lv.saved in
  let wclock = st.wclock and rclock = st.rclock in
  for i = 0 to (n * n) - 1 do
    cp.(i) <- clocks.(i)
  done;
  for r = 0 to n - 1 do
    saved.(r) <- wclock.(ob + r);
    saved.(n + r) <- rclock.(ob + r)
  done;
  for r = 0 to n - 1 do
    let c = Int.max cp.(row + r) wclock.(ob + r) in
    cp.(row + r) <- (if w then Int.max c rclock.(ob + r) else c)
  done;
  cp.(row + q) <- clocks.(row + q) + 1;
  if w then
    for r = 0 to n - 1 do
      wclock.(ob + r) <- cp.(row + r);
      rclock.(ob + r) <- 0
    done
  else
    for r = 0 to n - 1 do
      rclock.(ob + r) <- Int.max rclock.(ob + r) cp.(row + r)
    done;
  lv.pid <- q;
  lv.prev <- st.last.(o);
  st.last.(o) <- depth

let untake st depth =
  let n = st.n in
  let lv = st.levels.(depth) in
  let o = lv.objs.(lv.pid) in
  let ob = o * n and saved = lv.saved in
  let wclock = st.wclock and rclock = st.rclock in
  for r = 0 to n - 1 do
    wclock.(ob + r) <- saved.(r);
    rclock.(ob + r) <- saved.(n + r)
  done;
  st.last.(o) <- lv.prev

(* Siblings keep sleeping only while independent of [q]'s transition. *)
let sleep_after st lv sleep q =
  let o = lv.objs.(q) and w = mem q lv.writers in
  let keep = ref 0 in
  for r = 0 to st.n - 1 do
    if
      mem r (lv.enabled land sleep)
      && not (lv.objs.(r) = o && (w || mem r lv.writers))
    then keep := !keep lor bit r
  done;
  !keep

let run ?(max_schedules = 1_000_000) ?(max_events = 200) session ~n ~make_body
    ~on_complete () =
  if n > 62 then invalid_arg "Dpor.run: at most 62 processes";
  let sleep_blocked = ref 0 in
  let st =
    { n; levels = [||]; wclock = [||]; rclock = [||]; last = [||] }
  in
  (* The node at [depth], whose sleeping transitions are the pid bitmask
     [sleep]. *)
  let visit sched ~depth sleep ~descend =
    let lv = level st depth in
    inspect st sched lv;
    if lv.enabled = 0 then true
    else begin
      reserve st (Store.size (Session.store session));
      for p = 0 to n - 1 do
        if mem p lv.enabled then detect_race st depth p
      done;
      let awake = lv.enabled land lnot sleep in
      if awake = 0 then
        (* Everything enabled sleeps: every continuation from here is a
           reordering of a trace delivered elsewhere. *)
        incr sleep_blocked
      else begin
        (* The lowest awake pid first; races below it grow the backtrack
           set. *)
        lv.backtrack <- bit (lowest awake);
        lv.done_ <- 0;
        let zs = ref sleep in
        let todo = ref lv.backtrack in
        while !todo <> 0 do
          let q = lowest !todo in
          lv.done_ <- lv.done_ lor bit q;
          if not (mem q !zs) then begin
            let sleep' = sleep_after st lv !zs q in
            take st depth q;
            descend q sleep';
            untake st depth;
            zs := !zs lor bit q
          end;
          todo := lv.backtrack land lnot lv.done_
        done
      end;
      false
    end
  in
  let { Explore.explored; truncated } =
    Explore.walk ~max_schedules ~max_events session ~n ~make_body ~root:0
      ~visit ~on_complete ()
  in
  { explored; sleep_blocked = !sleep_blocked; truncated }
