(* Contention-adaptive backend dispatch: one structure, two update
   paths.  Each instance here owns a SINGLE underlying unboxed structure
   plus a {!Smem.Combine} arena over it, and routes every update through
   whichever side of the paper's tradeoff the recent workload favors:

   - the *plain* path is the structure's own lock-free operation (the
     [_metered] entry point, so CAS attempt/failure signals accrue);
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
   update operations on the triggering domain): read share and
   stale-write rate from its own per-domain cells, CAS failure rate
   from {!Obs.Metrics} deltas when a live handle is attached,
   elimination/batching benefit and combiner-lock pressure from
   {!Smem.Combine.stats} deltas.  The decision itself is the pure
   {!Policy} module — per-structure threshold parameters folded with
   hysteresis ([hysteresis] consecutive epochs wanting the other mode
   before a flip), so the dispatcher cannot thrash at a crossover where
   the signals sit on the fence.

   Cost discipline: unmetered instances ([create]) carry the shared
   {!Obs.Metrics.disabled} handle, so the settled plain path is the raw
   structure op plus one immediate-bool branch; and drivers that know
   their batch shape hoist the mode check out of the inner loop
   ([combining_now] + the raw [write_plain]/[write_combining] pair) and
   settle accounting in bulk with [tick_many] — at any granularity, the
   bench uses 16-batch flush windows with a cached mode — so the
   dispatch tax is amortized to ~nothing per op.  The per-op
   [write_max]/[increment] entry points remain for oblivious callers
   (qcheck drivers, chaos soaks, the metered registry instances).

   Concurrency discipline: every raw atomic lives in {!Ctl} (lint R1
   allowlists [Adaptive.Ctl] only).  The mode cell and the epoch lock
   are padded atomics; per-domain update ticks are single-writer padded
   cells bumped with plain load + store (the Obs.Metrics shard
   discipline — readable mid-run by the epoch advancer without a data
   race, unlike a plain int array).  Epoch bookkeeping (last-snapshot
   fields, hysteresis state, ops tallies) is plain mutable state guarded
   by the epoch lock's CAS; {!Ctl.report} reads it and is exact at
   quiescence, like {!Smem.Combine.stats} eliminations. *)

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
    reads : int;
    updates : int;
    stale : int;
    cas_attempts : int;
    cas_failures : int;
    eliminations : int;
    combined_ops : int;
    batches : int;
    locks : int;
  }

  let zero_signals =
    { reads = 0;
      updates = 0;
      stale = 0;
      cas_attempts = 0;
      cas_failures = 0;
      eliminations = 0;
      combined_ops = 0;
      batches = 0;
      locks = 0 }

  type params = {
    epoch_ops : int;
    hysteresis : int;
    min_updates : int;
    update_share_min : float;
    cas_fail_min : float;
    stale_min : float;
    benefit_min : float;
  }

  let validate p =
    if p.epoch_ops <= 0 || p.epoch_ops land (p.epoch_ops - 1) <> 0 then
      invalid_arg "Adaptive: epoch_ops must be a positive power of two";
    if p.hysteresis < 1 then invalid_arg "Adaptive: hysteresis must be >= 1";
    if p.min_updates < 0 then invalid_arg "Adaptive: negative min_updates";
    if not (p.update_share_min >= 0. && p.update_share_min <= 1.) then
      invalid_arg "Adaptive: update_share_min out of [0, 1]";
    if not (p.cas_fail_min >= 0.) then
      invalid_arg "Adaptive: negative cas_fail_min";
    if not (p.stale_min >= 0.) then invalid_arg "Adaptive: negative stale_min";
    if not (p.benefit_min >= 0.) then
      invalid_arg "Adaptive: negative benefit_min"

  (* Thresholds tuned against the PR 7 measurements (EXPERIMENTS.md):
     combining wins for algorithm-a exactly where elimination + batching
     engage (write-heavy multi-domain mixes), and measurably loses for
     cas-loop (whose plain path is one CAS) and for the counters on this
     host — so the maxreg policy is eager and the others demand strong
     evidence before leaving the plain path, with a benefit bar that
     sends them back when the arena stops earning its keep.

     Plain -> Combining needs a trigger OBSERVABLE from the plain path.
     CAS failure rate is the real-multicore one, but on a time-shared
     host CASes essentially never fail even where combining wins 2x, so
     the maxreg policy also watches the stale-write rate: the fraction
     of updates whose value was already at or below the structure's
     current max (one O(1) read to check).  Those are exactly the
     writes elimination would complete with zero shared writes, so the
     stale rate is the plain path's estimator of the arena's
     elimination benefit.  A >1 bar disables the trigger: for cas-loop
     a stale write is already a single cheap load on the plain path
     (nothing for the arena to save), and counter increments are never
     stale. *)

  let default_maxreg =
    { epoch_ops = 1024;
      hysteresis = 2;
      min_updates = 256;
      update_share_min = 0.05;
      cas_fail_min = 0.05;
      stale_min = 0.30;
      benefit_min = 0.10 }

  let default_cas =
    { default_maxreg with
      update_share_min = 0.10;
      cas_fail_min = 0.40;
      stale_min = 2.0;
      benefit_min = 0.60 }

  let default_counter =
    { default_maxreg with
      cas_fail_min = 0.35;
      stale_min = 2.0;
      benefit_min = 0.50 }

  (* The naive counter has no CAS at all, so a >1 failure-rate bar is
     unreachable: the control never flips unless a test hands it a
     custom policy. *)
  let default_control =
    { default_maxreg with cas_fail_min = 2.0; stale_min = 2.0;
      benefit_min = 1.0 }

  let ratio num den = if den <= 0 then 0. else float_of_int num /. float_of_int den

  (* One epoch's verdict, ignoring hysteresis.  An epoch with too few
     updates is no evidence either way (keep the current mode); a
     read-dominated epoch always wants the plain path (reads never
     benefit from the arena, and updates are too rare to contend);
     otherwise Plain -> Combining requires real CAS contention or a
     stale-write rate past the structure's bar (the plain-path
     estimator of elimination benefit), and Combining -> Plain triggers
     when the arena's earned benefit (eliminations + ops absorbed into
     batches, per update) drops below the structure's bar. *)
  let want p ~current s =
    if s.updates < p.min_updates then current
    else if
      ratio s.updates (s.reads + s.updates) < p.update_share_min
    then Plain
    else
      match current with
      | Plain ->
        if
          ratio s.cas_failures s.cas_attempts >= p.cas_fail_min
          || ratio s.stale s.updates >= p.stale_min
        then Combining
        else Plain
      | Combining ->
        if ratio (s.eliminations + s.combined_ops) s.updates < p.benefit_min
        then Plain
        else Combining

  (* Hysteresis as a pure fold: [pending]/[streak] track how many
     consecutive epochs wanted a mode different from the current one;
     the flip lands only when the streak reaches [p.hysteresis].  Any
     epoch agreeing with the current mode resets the streak. *)
  type hstate = {
    mode : mode;
    pending : mode;
    streak : int;
    flips : int;
  }

  let initial mode = { mode; pending = mode; streak = 0; flips = 0 }

  let step p h s =
    let w = want p ~current:h.mode s in
    if w = h.mode then { h with pending = h.mode; streak = 0 }
    else if h.pending = w && h.streak + 1 >= p.hysteresis then
      { mode = w; pending = w; streak = 0; flips = h.flips + 1 }
    else if h.pending = w then { h with streak = h.streak + 1 }
    else { h with pending = w; streak = 1 }
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
    metrics : Obs.Metrics.t;
    arena : Smem.Combine.t;
    mode : int Atomic.t;  (* padded; 0 plain, 1 combining *)
    epoch_lock : int Atomic.t;  (* padded; 0 free, 1 held *)
    ticks : int Atomic.t array;  (* padded single-writer update counts *)
    stales : int Atomic.t array;  (* padded single-writer stale-write counts *)
    reads_c : int Atomic.t array;  (* padded single-writer read counts
                                      (accrued only via [tick_many]) *)
    epoch_mask : int;  (* epoch_ops - 1; epoch_ops is a power of two *)
    epoch_shift : int;  (* log2 epoch_ops, for bulk boundary crossing *)
    (* epoch bookkeeping, mutated only with [epoch_lock] held *)
    mutable h : Policy.hstate;
    mutable epochs : int;
    mutable ops_total : int;  (* updates attributed to a finished epoch *)
    mutable ops_combining : int;  (* ... that ran in combining mode *)
    mutable last_updates : int;
    mutable last_stale : int;
    mutable last_reads : int;
    mutable last_cas_attempts : int;
    mutable last_cas_failures : int;
    mutable last_eliminations : int;
    mutable last_combined_ops : int;
    mutable last_batches : int;
    mutable last_locks : int;
  }

  let log2 n =
    let rec go acc k = if k <= 1 then acc else go (acc + 1) (k lsr 1) in
    go 0 n

  let create ~params ~domains ~metrics ~arena =
    Policy.validate params;
    { params;
      domains;
      metrics;
      arena;
      mode = Smem.Unboxed_memory.Padded.make 0;
      epoch_lock = Smem.Unboxed_memory.Padded.make 0;
      ticks =
        Array.init domains (fun _ -> Smem.Unboxed_memory.Padded.make 0);
      stales =
        Array.init domains (fun _ -> Smem.Unboxed_memory.Padded.make 0);
      reads_c =
        Array.init domains (fun _ -> Smem.Unboxed_memory.Padded.make 0);
      epoch_mask = params.Policy.epoch_ops - 1;
      epoch_shift = log2 params.Policy.epoch_ops;
      h = Policy.initial Policy.Plain;
      epochs = 0;
      ops_total = 0;
      ops_combining = 0;
      last_updates = 0;
      last_stale = 0;
      last_reads = 0;
      last_cas_attempts = 0;
      last_cas_failures = 0;
      last_eliminations = 0;
      last_combined_ops = 0;
      last_batches = 0;
      last_locks = 0 }

  let[@inline] combining t = Atomic.get t.mode = 1

  let sum_cells cells domains =
    let acc = ref 0 in
    for d = 0 to domains - 1 do
      acc := !acc + Atomic.get (Array.unsafe_get cells d)
    done;
    !acc

  let sum_ticks t = sum_cells t.ticks t.domains

  (* Epoch boundary (rare path, may allocate).  The CAS-guarded lock
     serializes advancers; a losing domain just skips — the winner is
     already folding this epoch's deltas.  Signals are deltas since the
     previous boundary: update counts from our own tick cells, CAS and
     read counts from the metrics handle, arena activity from the
     combine stats.  The epoch's updates are attributed to the mode
     they ran under (the mode BEFORE any flip this call applies). *)
  let advance t =
    if Atomic.compare_and_set t.epoch_lock 0 1 then begin
      let updates = sum_ticks t in
      let stale = sum_cells t.stales t.domains in
      let tot = Obs.Metrics.totals t.metrics in
      let st = Smem.Combine.stats t.arena in
      (* reads come from two mutually-exclusive accounting paths: the
         shared metrics handle (metered per-op drivers record [Op_read]
         there) and the dispatcher's own cells ([tick_many] callers) *)
      let reads = tot.Obs.Metrics.op_reads + sum_cells t.reads_c t.domains in
      let s =
        { Policy.reads = reads - t.last_reads;
          updates = updates - t.last_updates;
          stale = stale - t.last_stale;
          cas_attempts = tot.Obs.Metrics.cas_attempts - t.last_cas_attempts;
          cas_failures = tot.Obs.Metrics.cas_failures - t.last_cas_failures;
          eliminations =
            st.Smem.Combine.eliminations - t.last_eliminations;
          combined_ops = st.Smem.Combine.combined_ops - t.last_combined_ops;
          batches = st.Smem.Combine.batches - t.last_batches;
          locks = st.Smem.Combine.lock_acquisitions - t.last_locks }
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
      t.last_updates <- updates;
      t.last_stale <- stale;
      t.last_reads <- reads;
      t.last_cas_attempts <- tot.Obs.Metrics.cas_attempts;
      t.last_cas_failures <- tot.Obs.Metrics.cas_failures;
      t.last_eliminations <- st.Smem.Combine.eliminations;
      t.last_combined_ops <- st.Smem.Combine.combined_ops;
      t.last_batches <- st.Smem.Combine.batches;
      t.last_locks <- st.Smem.Combine.lock_acquisitions;
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

  (* Bulk accounting for batch-granular drivers (the bench's timed
     loops): one call per batch folds the batch's read/update/stale
     counts into this domain's cells, advancing the epoch if the bulk
     update crossed an [epoch_ops] boundary.  Amortizes the dispatch
     bookkeeping to nothing per op — the per-op [tick] path costs two
     atomic accesses per update, which is real money next to a
     single-CAS structure op. *)
  let tick_many t ~pid ~reads ~updates ~stale =
    if reads > 0 then begin
      let c = Array.get t.reads_c pid in
      Atomic.set c (Atomic.get c + reads)
    end;
    if stale > 0 then begin
      let c = Array.get t.stales pid in
      Atomic.set c (Atomic.get c + stale)
    end;
    if updates > 0 then begin
      let c = Array.get t.ticks pid in
      let n = Atomic.get c in
      let n' = n + updates in
      Atomic.set c n';
      if n' lsr t.epoch_shift <> n lsr t.epoch_shift then advance t
    end

  (* Exact at quiescence (writers joined); concurrent calls may observe
     a slightly stale picture, never a torn one worse than that. *)
  let report t =
    let residual = sum_ticks t - t.last_updates in
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
  val update : t -> pid:int -> int -> unit
  val update_metered : t -> metrics:Obs.Metrics.t -> pid:int -> int -> unit

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

  (* Without a live handle (absent or {!Obs.Metrics.disabled}) the
     instance dispatches on the stale-rate and arena signals alone, the
     plain path is the raw structure op plus one immediate-bool branch,
     and [domains = 1] short-circuits every update to a direct call.  A
     live handle adds CAS-rate dispatch and keeps full dispatch at
     [domains = 1]: the metrics pass measures counters, not time. *)
  let make ?(policy = S.default_policy) ?spin ?(metrics = Obs.Metrics.disabled)
      ~domains s =
    let arena = Smem.Combine.create ?spin ~domains ~combine:S.combine () in
    { s;
      arena;
      apply = (fun d v -> S.update_metered s ~metrics ~pid:d v);
      ctl = Ctl.create ~params:policy ~domains ~metrics ~arena;
      metrics;
      solo = domains = 1 && not (Obs.Metrics.enabled metrics);
      track_stale = policy.Policy.stale_min <= 1.0 }

  let arena t = t.arena
  let report t = Ctl.report t.ctl
  let unboxed t = t.s
  let[@inline] combining_now t = (not t.solo) && Ctl.combining t.ctl

  let[@inline] check v =
    if v < 0 then invalid_arg "Adaptive: negative update value"

  let[@inline] update_plain t ~pid v =
    S.update_metered t.s ~metrics:t.metrics ~pid v

  let[@inline] combining_path t ~pid v =
    let r = S.try_update t.s v in
    if r = 0 then Smem.Combine.record_elimination t.arena ~domain:pid
    else if r = 2 then
      Smem.Combine.submit t.arena ~domain:pid ~apply:t.apply v

  let update_combining t ~pid v =
    check v;
    if t.solo then S.update t.s ~pid v else combining_path t ~pid v

  let tick_many t ~pid ~reads ~updates ~stale =
    if not t.solo then Ctl.tick_many t.ctl ~pid ~reads ~updates ~stale

  let update t ~pid v =
    check v;
    if t.solo then S.update t.s ~pid v
    else begin
      if Ctl.combining t.ctl then combining_path t ~pid v
      else begin
        if t.track_stale && S.subsumed t.s v then Ctl.note_stale t.ctl ~pid;
        S.update_metered t.s ~metrics:t.metrics ~pid v
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
    ?spin:int ->
    ?metrics:Obs.Metrics.t ->
    domains:int ->
    structure ->
    t

  val read : t -> int
  val update : t -> pid:int -> int -> unit
  val unboxed : t -> structure
  val combining_now : t -> bool
  val update_plain : t -> pid:int -> int -> unit
  val update_combining : t -> pid:int -> int -> unit

  val tick_many :
    t -> pid:int -> reads:int -> updates:int -> stale:int -> unit

  val arena : t -> Smem.Combine.t
  val report : t -> report
end

(* {1 The structures} *)

module Alg_a = struct
  include Kernel (struct
    type t = AU.t

    let default_policy = Policy.default_maxreg
    let combine = imax
    let update = AU.write_max
    let update_metered = AU.write_max_metered
    let subsumed reg v = v <= AU.read_max reg

    (* the root is monotone: a write at or below it is already subsumed
       and eliminates; never CAS the root outside propagate *)
    let try_update reg v = if subsumed reg v then 0 else 2
  end)

  let create ?policy ?spin ~n ~domains () =
    make ?policy ?spin ~domains (AU.create ~n ())

  let create_metered ?policy ?spin ~metrics ~n ~domains () =
    make ?policy ?spin ~metrics ~domains (AU.create ~n ())

  let[@inline] read_max t = AU.read_max t.s
  let read = read_max
  let write_max = update
  let write_plain = update_plain
  let write_combining = update_combining
end

module Cas = struct
  include Kernel (struct
    type t = CU.t

    let default_policy = Policy.default_cas
    let combine = imax
    let update = CU.write_max
    let update_metered = CU.write_max_metered
    let subsumed reg v = v <= CU.read_max reg

    (* one uncontended read + CAS; only a lost race pays the arena,
       whose combiner replays the full retry loop once per batch *)
    let try_update = CU.write_once
  end)

  let create ?policy ?spin ~domains () =
    make ?policy ?spin ~domains (CU.create ())

  let[@inline] read_max t = CU.read_max t.s
  let read = read_max
  let write_max = update
  let write_plain = update_plain
  let write_combining = update_combining
end

(* Counters: an increment is an update by 1, never subsumed; the arena
   folds k pending increments into one [add k] at the combiner's own
   leaf or cell — one propagation per batch. *)

module Farray_c = struct
  include Kernel (struct
    type t = FU.t

    let default_policy = Policy.default_counter
    let combine = ( + )
    let update = FU.add
    let update_metered = FU.add_metered
    let subsumed _ _ = false
    let try_update _ _ = 2
  end)

  let create ?policy ?spin ~n ~domains () =
    make ?policy ?spin ~domains (FU.create ~n ())

  let[@inline] read t = FU.read t.s
  let increment t ~pid = update t ~pid 1
end

(* The naive counter is the protocol-cost control: it has no CAS, so
   under {!Policy.default_control} it never leaves the plain path (an
   increment is one write to an owned line); tests hand it permissive
   policies to exercise the flip machinery. *)

module Naive_c = struct
  include Kernel (struct
    type t = NU.t

    let default_policy = Policy.default_control
    let combine = ( + )
    let update = NU.add
    let update_metered c ~metrics:_ ~pid k = NU.add c ~pid k
    let subsumed _ _ = false
    let try_update _ _ = 2
  end)

  let create ?policy ?spin ~n ~domains () =
    make ?policy ?spin ~domains (NU.create ~n ())

  let[@inline] read t = NU.read t.s
  let increment t ~pid = update t ~pid 1
end
