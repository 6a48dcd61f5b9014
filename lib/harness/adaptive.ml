(* Contention-adaptive backend dispatch: one structure, two update
   paths.  Each instance here owns a SINGLE underlying unboxed structure
   plus a {!Smem.Combine} arena over it, and routes every update through
   whichever side of the paper's tradeoff the recent workload favors:

   - the *plain* path is the structure's own lock-free operation, which
     takes the instance's metrics handle (so CAS attempt/failure counts
     are recorded when it is live);
   - the *combining* path is the structure's fast-path attempt
     (elimination against the monotone root, cas-loop's [write_once])
     and otherwise an arena submit.  It is also the whole of the static
     flat-combining backend: {!Instances} builds that backend as an
     instance here whose updates always take this path.

   Both paths mutate the same structure, so a flip never copies state
   and mixed-mode windows are linearizable: an arena apply IS the plain
   operation executed by the combiner's domain, racing other plain
   operations exactly as two plain operations race.  Reads are always
   direct — the mode only selects an update path — so read-heavy mixes
   pay nothing for the adaptivity.

   The dispatcher samples per-epoch signals (an epoch is [epoch_ops]
   update operations on the triggering domain) that every instance
   observes itself: update counts and the stale-write rate from its own
   per-domain cells, elimination/batching benefit from
   {!Smem.Combine.stats} deltas.  A metrics handle records and never
   steers, so a metered instance decides exactly as an unmetered one fed
   the same updates.  The decision itself is the pure {!Policy} module —
   per-structure threshold parameters folded with hysteresis
   ([hysteresis] consecutive epochs wanting the other mode before a
   flip), so the dispatcher cannot thrash at a crossover where the
   signals sit on the fence.

   Cost discipline: unmetered instances ([create]) carry the shared
   {!Obs.Metrics.disabled} handle, so the settled plain path is the raw
   structure op plus one immediate-bool branch, and the dispatch tax
   per update is the mode check and the tick.  Every caller — the
   registry, chaos soaks, the bench columns — runs that one per-op
   [update] (or [update_combining], the pinned combining path).

   Concurrency discipline: every raw atomic lives in {!Ctl} (lint R1
   allowlists [Adaptive.Ctl] only).  The mode cell and the epoch lock
   are padded atomics; per-domain update ticks are single-writer padded
   cells bumped with plain load + store (the Obs.Metrics shard
   discipline — readable mid-run by the epoch advancer without a data
   race, unlike a plain int array).  Epoch bookkeeping (the last
   boundary's totals, hysteresis state, ops tallies) is plain mutable
   state guarded by the epoch lock's CAS; {!Ctl.report} reads it and is
   exact at quiescence, like {!Smem.Combine.stats} eliminations. *)

module AU = Unboxed.Algorithm_a
module CU = Unboxed.Cas_maxreg
module FU = Unboxed.Farray_counter
module NU = Unboxed.Naive_counter

let imax a b = if a >= b then a else b

(* {1 The pure decision kernel} *)

module Policy = struct
  type mode = Plain | Combining

  let mode_name = function Plain -> "plain" | Combining -> "combining"

  type signals = {
    updates : int;
    stale : int;
    eliminations : int;
    combined_ops : int;
  }

  let zero_signals =
    { updates = 0; stale = 0; eliminations = 0; combined_ops = 0 }

  type params = {
    epoch_ops : int;
    hysteresis : int;
    min_updates : int;
    stale_min : float;
    benefit_min : float;
  }

  let validate p =
    if p.epoch_ops <= 0 || p.epoch_ops land (p.epoch_ops - 1) <> 0 then
      invalid_arg "Adaptive: epoch_ops must be a positive power of two";
    if p.hysteresis < 1 then invalid_arg "Adaptive: hysteresis must be >= 1";
    if p.min_updates < 0 then invalid_arg "Adaptive: negative min_updates";
    if not (p.stale_min >= 0.) then invalid_arg "Adaptive: negative stale_min";
    if not (p.benefit_min >= 0.) then
      invalid_arg "Adaptive: negative benefit_min"

  (* Thresholds tuned against the flat-combining measurements
     (EXPERIMENTS.md): combining wins for algorithm-a exactly where
     elimination + batching engage (write-heavy multi-domain mixes), and
     measurably loses for cas-loop (whose plain path is one CAS) and for
     the counters on this host — so the maxreg policy is eager, with a
     benefit bar that sends it back when the arena stops earning its
     keep, and the others stay plain.

     Plain -> Combining needs a trigger every instance observes on its
     own plain path: the stale-write rate, the fraction of updates whose
     value was already at or below the structure's current max (one
     O(1) read to check).  Those are exactly the writes elimination
     would complete with zero shared writes, so the stale rate is the
     plain path's estimator of the arena's elimination benefit.  (The
     CAS failure rate reaches only a metered instance, and on a
     time-shared host CASes essentially never fail even where combining
     wins 2x.)  A >1 bar disables the trigger: for cas-loop a stale
     write is already a single cheap load on the plain path (nothing for
     the arena to save), and counter increments are never stale. *)

  let default_maxreg =
    { epoch_ops = 1024;
      hysteresis = 2;
      min_updates = 256;
      stale_min = 0.30;
      benefit_min = 0.10 }

  let default_plain = { default_maxreg with stale_min = 2.0 }

  let thrash =
    { epoch_ops = 2;
      hysteresis = 1;
      min_updates = 1;
      stale_min = 0.;
      benefit_min = 10. }

  let ratio num den = if den <= 0 then 0. else float_of_int num /. float_of_int den

  (* One epoch's verdict, ignoring hysteresis.  An epoch with too few
     updates is no evidence either way (keep the current mode);
     otherwise Plain -> Combining requires a stale-write rate past the
     structure's bar (the plain-path estimator of elimination benefit),
     and Combining -> Plain triggers when the arena's earned benefit
     (eliminations + ops absorbed into batches, per update) drops below
     the structure's bar. *)
  let want p ~current s =
    if s.updates < p.min_updates then current
    else
      match current with
      | Plain ->
        if ratio s.stale s.updates >= p.stale_min then Combining else Plain
      | Combining ->
        if ratio (s.eliminations + s.combined_ops) s.updates < p.benefit_min
        then Plain
        else Combining

  (* Hysteresis as a pure fold: [streak] counts consecutive epochs that
     wanted the other mode (with two modes, a dissent can only want the
     other one); the flip lands on the [p.hysteresis]-th.  Any epoch
     agreeing with the current mode resets the streak. *)
  type hstate = { mode : mode; streak : int; flips : int }

  let initial mode = { mode; streak = 0; flips = 0 }

  let step p h s =
    let w = want p ~current:h.mode s in
    if w = h.mode then { h with streak = 0 }
    else if h.streak + 1 >= p.hysteresis then
      { mode = w; streak = 0; flips = h.flips + 1 }
    else { h with streak = h.streak + 1 }
end

(* {1 Quiescent-read report} *)

type report = {
  mode : Policy.mode;
  epochs : int;
  epoch_flips : int;
  combining_ops_pct : float;
}

(* {1 The controller: every raw atomic lives here (lint R1)} *)

module Ctl = struct
  type t = {
    params : Policy.params;
    domains : int;
    arena : Smem.Combine.t;
    mode : int Atomic.t;  (* padded; 0 plain, 1 combining *)
    epoch_lock : int Atomic.t;  (* padded; 0 free, 1 held *)
    ticks : int Atomic.t array;  (* padded single-writer update counts *)
    stales : int Atomic.t array;  (* padded single-writer stale-write counts *)
    epoch_mask : int;  (* epoch_ops - 1; epoch_ops is a power of two *)
    (* epoch bookkeeping, mutated only with [epoch_lock] held *)
    mutable h : Policy.hstate;
    mutable epochs : int;
    mutable ops_total : int;  (* updates attributed to a finished epoch *)
    mutable ops_combining : int;  (* ... that ran in combining mode *)
    mutable last : Policy.signals;  (* cumulative, at the last boundary *)
  }

  let create ~params ~domains ~arena =
    Policy.validate params;
    { params;
      domains;
      arena;
      mode = Smem.Unboxed_memory.Padded.make 0;
      epoch_lock = Smem.Unboxed_memory.Padded.make 0;
      ticks =
        Array.init domains (fun _ -> Smem.Unboxed_memory.Padded.make 0);
      stales =
        Array.init domains (fun _ -> Smem.Unboxed_memory.Padded.make 0);
      epoch_mask = params.Policy.epoch_ops - 1;
      h = Policy.initial Policy.Plain;
      epochs = 0;
      ops_total = 0;
      ops_combining = 0;
      last = Policy.zero_signals }

  let[@inline] combining t = Atomic.get t.mode = 1

  let sum_cells cells domains =
    let acc = ref 0 in
    for d = 0 to domains - 1 do
      acc := !acc + Atomic.get (Array.unsafe_get cells d)
    done;
    !acc

  let sum_ticks t = sum_cells t.ticks t.domains

  (* The signals accumulated since creation: update counts and stale
     writes from our own cells, arena activity from the combine stats. *)
  let totals t =
    let updates = sum_ticks t in
    let stale = sum_cells t.stales t.domains in
    let st = Smem.Combine.stats t.arena in
    { Policy.updates;
      stale;
      eliminations = st.Smem.Combine.eliminations;
      combined_ops = st.Smem.Combine.combined_ops }

  (* Epoch boundary (rare path, may allocate).  The CAS-guarded lock
     serializes advancers; a losing domain just skips — the winner is
     already folding this epoch's deltas.  The epoch's signals are the
     totals' deltas since the previous boundary, and its updates are
     attributed to the mode they ran under (the mode BEFORE any flip
     this call applies). *)
  let advance t =
    if Atomic.compare_and_set t.epoch_lock 0 1 then begin
      let now = totals t and last = t.last in
      let s =
        { Policy.updates = now.updates - last.updates;
          stale = now.stale - last.stale;
          eliminations = now.eliminations - last.eliminations;
          combined_ops = now.combined_ops - last.combined_ops }
      in
      let before = t.h.Policy.mode in
      let h' = Policy.step t.params t.h s in
      t.epochs <- t.epochs + 1;
      t.ops_total <- t.ops_total + s.Policy.updates;
      if before = Policy.Combining then
        t.ops_combining <- t.ops_combining + s.Policy.updates;
      t.h <- h';
      if h'.Policy.mode <> before then
        Atomic.set t.mode
          (match h'.Policy.mode with Policy.Combining -> 1 | Policy.Plain -> 0);
      t.last <- now;
      Atomic.set t.epoch_lock 0
    end

  (* Per-update tick: one plain load + store on the domain's own padded
     cell, a mask test, and (once per [epoch_ops] of this domain's
     updates) the epoch advance.  Safe indexing: [pid] outside
     [0 .. domains-1] raises rather than corrupting a neighbor cell. *)
  let[@inline] tick t ~pid =
    let c = Array.get t.ticks pid in
    let n = Atomic.get c + 1 in
    Atomic.set c n;
    if n land t.epoch_mask = 0 then advance t

  (* Plain-path stale-write tally (see [Policy.stale_min]): single-writer
     cell, same discipline as [tick]. *)
  let[@inline] note_stale t ~pid =
    let c = Array.get t.stales pid in
    Atomic.set c (Atomic.get c + 1)

  (* Exact at quiescence (writers joined); concurrent calls may observe
     a slightly stale picture, never a torn one worse than that. *)
  let report t =
    let residual = sum_ticks t - t.last.updates in
    let total = t.ops_total + residual in
    let combining_ops =
      t.ops_combining
      + (if t.h.Policy.mode = Policy.Combining then residual else 0)
    in
    { mode = t.h.Policy.mode;
      epochs = t.epochs;
      epoch_flips = t.h.Policy.flips;
      combining_ops_pct =
        (if total <= 0 then 0.
         else 100. *. float_of_int combining_ops /. float_of_int total) }
end

(* {1 The shared update kernel}

   Every structure runs the same dispatch around its own unboxed ops:
   validate, take the solo shortcut, check the mode, then either the
   plain path (tallying stale writes when the policy watches them) or
   the combining path (the structure's fast-path attempt, then
   elimination or an arena submit), and tick.  A structure supplies
   only the ops below.  The kernel is a functor, so without flambda its
   calls into them are indirect: one to two extra calls on the update
   path, none on the read path — each instance defines its read
   directly over the record field. *)

module type STRUCTURE = sig
  type t

  val default_policy : Policy.params
  val combine : int -> int -> int
  val update : t -> metrics:Obs.Metrics.t -> pid:int -> int -> unit

  val subsumed : t -> int -> bool
  (* the update is already absorbed by the current state: a stale write *)

  val try_update : t -> int -> int
  (* the combining path's attempt: 0 eliminated (linearized at the read
     that found it subsumed), 1 applied, 2 route to the arena *)
end

module Kernel (S : STRUCTURE) = struct
  type structure = S.t

  type t = {
    s : S.t;
    arena : Smem.Combine.t;
    apply : int -> int -> unit;  (* built once: a literal [fun] at the
                                    submit site would allocate per op *)
    ctl : Ctl.t;
    metrics : Obs.Metrics.t;
    solo : bool;
    track_stale : bool;  (* policy.stale_min is a reachable bar *)
  }

  (* The handle only records: both paths pass it to the structure's op,
     and nothing in dispatch reads it.  Without a live one (absent or
     {!Obs.Metrics.disabled}) the plain path is the raw structure op
     plus one immediate-bool branch.  [domains = 1] short-circuits every
     update to a direct plain call. *)
  let make ?(policy = S.default_policy) ?(metrics = Obs.Metrics.disabled)
      ~domains s =
    let arena = Smem.Combine.create ~domains ~combine:S.combine () in
    { s;
      arena;
      apply = (fun d v -> S.update s ~metrics ~pid:d v);
      ctl = Ctl.create ~params:policy ~domains ~arena;
      metrics;
      solo = domains = 1;
      track_stale = policy.Policy.stale_min <= 1.0 }

  let arena t = t.arena
  let report t = Ctl.report t.ctl

  let[@inline] check v =
    if v < 0 then invalid_arg "Adaptive: negative update value"

  let[@inline] update_plain t ~pid v = S.update t.s ~metrics:t.metrics ~pid v

  let[@inline] combining_path t ~pid v =
    let r = S.try_update t.s v in
    if r = 0 then Smem.Combine.record_elimination t.arena ~domain:pid
    else if r = 2 then
      Smem.Combine.submit t.arena ~domain:pid ~apply:t.apply v

  let update_combining t ~pid v =
    check v;
    if t.solo then update_plain t ~pid v else combining_path t ~pid v

  let update t ~pid v =
    check v;
    if t.solo then update_plain t ~pid v
    else begin
      if Ctl.combining t.ctl then combining_path t ~pid v
      else begin
        if t.track_stale && S.subsumed t.s v then Ctl.note_stale t.ctl ~pid;
        update_plain t ~pid v
      end;
      Ctl.tick t.ctl ~pid
    end
end

(* What every instance offers: the kernel plus a direct [read]. *)
module type S = sig
  type t
  type structure

  val make :
    ?policy:Policy.params ->
    ?metrics:Obs.Metrics.t ->
    domains:int ->
    structure ->
    t

  val read : t -> int
  val update : t -> pid:int -> int -> unit
  val update_combining : t -> pid:int -> int -> unit
  val arena : t -> Smem.Combine.t
  val report : t -> report
end

(* {1 The structures} *)

module Alg_a = struct
  include Kernel (struct
    type t = AU.t

    let default_policy = Policy.default_maxreg
    let combine = imax
    let update = AU.write_max_metered
    let subsumed reg v = v <= AU.read_max reg

    (* the root is monotone: a write at or below it is already subsumed
       and eliminates; never CAS the root outside propagate *)
    let try_update reg v = if subsumed reg v then 0 else 2
  end)

  let create ?policy ~n ~domains () = make ?policy ~domains (AU.create ~n ())

  let create_metered ?policy ~metrics ~n ~domains () =
    make ?policy ~metrics ~domains (AU.create ~n ())

  let[@inline] read_max t = AU.read_max t.s
  let read = read_max
  let write_max = update
end

module Cas = struct
  include Kernel (struct
    type t = CU.t

    let default_policy = Policy.default_plain
    let combine = imax
    let update = CU.write_max_metered
    let subsumed reg v = v <= CU.read_max reg

    (* one uncontended read + CAS; only a lost race pays the arena,
       whose combiner replays the full retry loop once per batch *)
    let try_update = CU.write_once
  end)

  let create ?policy ~domains () = make ?policy ~domains (CU.create ())

  let[@inline] read_max t = CU.read_max t.s
  let read = read_max
  let write_max = update
end

(* Counters: an increment is an update by 1, never subsumed; the arena
   folds k pending increments into one [add k] at the combiner's own
   leaf or cell — one propagation per batch. *)

module Farray_c = struct
  include Kernel (struct
    type t = FU.t

    let default_policy = Policy.default_plain
    let combine = ( + )
    let update = FU.add_metered
    let subsumed _ _ = false
    let try_update _ _ = 2
  end)

  let create ?policy ~n ~domains () = make ?policy ~domains (FU.create ~n ())

  let[@inline] read t = FU.read t.s
  let increment t ~pid = update t ~pid 1
end

(* The naive counter is the protocol-cost control: under
   {!Policy.default_plain} it never leaves the plain path (an increment
   is one write to an owned line); tests hand it permissive policies to
   exercise the flip machinery. *)

module Naive_c = struct
  include Kernel (struct
    type t = NU.t

    let default_policy = Policy.default_plain
    let combine = ( + )
    let update c ~metrics:_ ~pid k = NU.add c ~pid k
    let subsumed _ _ = false
    let try_update _ _ = 2
  end)

  let create ?policy ~n ~domains () = make ?policy ~domains (NU.create ~n ())

  let[@inline] read t = NU.read t.s
  let increment t ~pid = update t ~pid 1
end
