(* Contention-adaptive backend dispatch for Algorithm A: one register,
   two update paths.  Each instance owns a SINGLE unboxed Algorithm A
   register plus a {!Smem.Combine} arena over it, and routes every
   WriteMax through whichever side of the paper's tradeoff the recent
   workload favors:

   - the *plain* path is the register's own wait-free WriteMax, which
     takes the instance's metrics handle (so CAS attempt/failure counts
     are recorded when it is live);
   - the *combining* path is elimination against the monotone root, and
     otherwise an arena submit.  It is also the whole of pinned flat
     combining: [update_combining] takes this path on every update.

   Both paths mutate the same register, so a flip never copies state
   and mixed-mode windows are linearizable: an arena apply IS the plain
   operation executed by the combiner's domain, racing other plain
   operations exactly as two plain operations race.  Reads are always
   direct — the mode only selects an update path — so read-heavy mixes
   pay nothing for the adaptivity.

   No other structure is dispatched.  The cas-loop register and the two
   counters never left the plain path under their default policy, and
   pinned to the arena they lost to the plain unboxed op on both hosts
   measured (EXPERIMENTS.md, "Why only Algorithm A is dispatched").

   The dispatcher samples per-epoch signals (an epoch is [epoch_ops]
   update operations on the triggering domain) that every instance
   observes itself: update counts and the stale-write rate from its own
   per-domain cells, elimination/batching benefit from
   {!Smem.Combine.stats} deltas.  A metrics handle records and never
   steers, so a metered instance decides exactly as an unmetered one fed
   the same updates.  The decision itself is the pure {!Policy} module —
   threshold parameters folded with hysteresis
   ([hysteresis] consecutive epochs wanting the other mode before a
   flip), so the dispatcher cannot thrash at a crossover where the
   signals sit on the fence.

   Cost discipline: unmetered instances ([create]) carry the shared
   {!Obs.Metrics.disabled} handle, so the settled plain path is the raw
   register op plus one immediate-bool branch, and the dispatch tax
   per update is the mode check and the tick.  Every caller — E7's
   columns, chaos soaks, the benchmark suite — runs that one per-op
   [write_max] (or [update_combining], the pinned combining path).

   Concurrency discipline: every raw atomic lives in {!Ctl} (lint R1
   allowlists [Adaptive.Ctl] only).  The mode cell and the epoch lock
   are padded atomics; per-domain update ticks are single-writer padded
   cells bumped with a load and an [Atomic.set] (the Obs.Metrics shard
   discipline — readable mid-run by the epoch advancer without a data
   race, unlike a plain int array).  No other domain writes the cell,
   but the bump is still an RMW: OCaml 5.1's [Atomic.set] is
   [ignore (exchange r x)], a call to [caml_atomic_exchange] and a
   locked exchange once a second domain runs.  Epoch bookkeeping (the last
   boundary's totals, hysteresis state, ops tallies) is plain mutable
   state guarded by the epoch lock's CAS; {!Ctl.report} reads it and is
   exact at quiescence, like {!Smem.Combine.stats} eliminations. *)

module AU = Unboxed.Algorithm_a

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
     elimination + batching engage (write-heavy multi-domain mixes), so
     the policy is eager, with a benefit bar that sends it back when the
     arena stops earning its keep.

     Plain -> Combining needs a trigger every instance observes on its
     own plain path: the stale-write rate, the fraction of updates whose
     value was already at or below the register's current max (one O(1)
     read to check).  Those are exactly the writes elimination would
     complete with zero shared writes, so the stale rate is the plain
     path's estimator of the arena's elimination benefit.  (The CAS
     failure rate reaches only a metered instance, and on a time-shared
     host CASes essentially never fail even where combining wins 2x.) *)

  let default_maxreg =
    { epoch_ops = 1024;
      hysteresis = 2;
      min_updates = 256;
      stale_min = 0.30;
      benefit_min = 0.10 }

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
     bar (the plain-path estimator of elimination benefit), and
     Combining -> Plain triggers when the arena's earned benefit
     (eliminations + ops absorbed into batches, per update) drops below
     its bar. *)
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

  (* Per-update tick: a load and an [Atomic.set] (one exchange, see the
     header) on the domain's own padded cell, a mask test, and (once per
     [epoch_ops] of this domain's updates) the epoch advance.  Safe indexing: [pid] outside
     [0 .. domains-1] raises rather than corrupting a neighbor cell. *)
  let[@inline] tick t ~pid =
    let c = Array.get t.ticks pid in
    let n = Atomic.get c + 1 in
    Atomic.set c n;
    if n land t.epoch_mask = 0 then advance t

  (* Plain-path stale-write tally (see [Policy.stale_min]): single-writer
     cell, same discipline and the same exchange as [tick]. *)
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

(* {1 The dispatched structure}

   Algorithm A's register under the dispatch: validate, take the solo
   shortcut, check the mode, then either the plain path (tallying stale
   writes) or the combining path (elimination, else an arena submit),
   and tick.  Every call into the register is a direct call of
   [Unboxed.Algorithm_a]. *)

module Alg_a = struct
  type t = {
    reg : AU.t;
    arena : Smem.Combine.t;
    apply : int -> int -> unit;  (* built once: a literal [fun] at the
                                    submit site would allocate per op *)
    ctl : Ctl.t;
    metrics : Obs.Metrics.t;
    solo : bool;
  }

  (* The handle only records: both paths pass it to [write_max_metered],
     and nothing in dispatch reads it.  With {!Obs.Metrics.disabled}
     (what [create] passes) the plain path is the raw register op plus
     one immediate-bool branch.  [domains = 1] short-circuits every
     update to a direct plain call. *)
  let create_metered ?(policy = Policy.default_maxreg) ~metrics ~n ~domains () =
    let reg = AU.create ~n () in
    let arena = Smem.Combine.create ~domains () in
    { reg;
      arena;
      apply = (fun d v -> AU.write_max_metered reg ~metrics ~pid:d v);
      ctl = Ctl.create ~params:policy ~domains ~arena;
      metrics;
      solo = domains = 1 }

  let create ?policy ~n ~domains () =
    create_metered ?policy ~metrics:Obs.Metrics.disabled ~n ~domains ()

  let arena t = t.arena
  let report t = Ctl.report t.ctl
  let[@inline] read_max t = AU.read_max t.reg

  (* a write at or below the root is already absorbed: a stale write *)
  let[@inline] subsumed t v = v <= read_max t

  let[@inline] check v =
    if v < 0 then invalid_arg "Adaptive: negative update value"

  let[@inline] update_plain t ~pid v =
    AU.write_max_metered t.reg ~metrics:t.metrics ~pid v

  (* The root is monotone: a subsumed write eliminates, linearized at
     the read that found it; never CAS the root outside propagate. *)
  let[@inline] combining_path t ~pid v =
    if subsumed t v then Smem.Combine.record_elimination t.arena ~domain:pid
    else Smem.Combine.submit t.arena ~domain:pid ~apply:t.apply v

  let update_combining t ~pid v =
    check v;
    if t.solo then update_plain t ~pid v else combining_path t ~pid v

  let write_max t ~pid v =
    check v;
    if t.solo then update_plain t ~pid v
    else begin
      if Ctl.combining t.ctl then combining_path t ~pid v
      else begin
        if subsumed t v then Ctl.note_stale t.ctl ~pid;
        update_plain t ~pid v
      end;
      Ctl.tick t.ctl ~pid
    end
end
