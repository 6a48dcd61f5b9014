(* The domain-scaling benchmark behind bin/bench.exe: every int-specialized
   implementation, boxed (Simval Atomic) vs unboxed (padded int Atomic),
   plus Algorithm A's flat-combining and contention-adaptive backends,
   swept over domain counts and read shares, with shared warmup and
   interleaved trials.  This is where the constant-factor story of the
   paper's O(1)-read structures is measured honestly: same algorithms,
   same step counts, only the base-object representation (and, for the
   combining/adaptive backends, the update submission protocol)
   changes.

   Each cell runs three kinds of pass:

   - throughput trials over the plain fused closures (no clocks, no
     metrics in the loop — the numbers of record), timed by
     {!Harness.Throughput.run_batched}'s measured barrier->stop-ack
     window.  All cells are constructed up front and their trials run in
     interleaved rounds (round-major, not cell-major), so slow drift of
     the host — thermal state, background load — lands evenly across
     cells instead of correlating with sweep order, and every trial after
     the first inherits the previous rounds as extra warmup of the same
     closure and structure;
   - a latency pass clocking the same fused closures per batched call
     into per-domain log-bucketed histograms (all backends, so the
     percentiles compare like the throughput medians do);
   - on every backend but boxed, a metrics pass running the workload
     through the instrumented instances of {!Harness.Instances} to
     collect contention counts (CAS attempts/failures, refresh rounds,
     helps, and for combining/adaptive: batches, combined ops,
     eliminations, combiner-lock acquisitions).  All passes are separate
     so the observability layer can never bias the throughput rows.

   Results are emitted both as a table (stdout) and as machine-readable
   JSON (BENCH_NATIVE.json, schema "bench-native/v4") so future changes
   have a perf trajectory to regress against (see {!Baseline}). *)

type config = {
  domain_counts : int list;
  read_shares : int list;  (* percent of operations that are reads *)
  seconds : float;         (* per timed trial *)
  warmup_seconds : float;
  trials : int;
  quick : bool;
}

(* Bad sweep inputs fail loudly: a zero-second or zero-trial cell would
   otherwise emit a nan row, an out-of-range share misquantizes in
   [read_pattern], [max_domains] < 1 silently ran d=1, no share wrote
   an empty trajectory, and a repeated share wrote rows with duplicate
   keys. *)
let check_sweep ~max_domains ~seconds ~trials ~read_shares =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  if max_domains < 1 then bad "max-domains must be >= 1 (got %d)" max_domains;
  if not (Float.is_finite seconds && seconds > 0.) then
    bad "seconds per trial must be finite and > 0 (got %g)" seconds;
  if trials < 1 then bad "trials must be >= 1 (got %d)" trials;
  if read_shares = [] then bad "no read share to sweep";
  List.iter
    (fun s -> if s < 0 || s > 100 then bad "read share %d%% is outside 0..100" s)
    read_shares;
  if List.compare_lengths (List.sort_uniq Int.compare read_shares) read_shares
     <> 0
  then bad "read shares must be distinct"

let config ?(quick = false) ?(max_domains = 4) ?seconds ?trials
    ?(read_shares = [ 0; 50; 90; 99 ]) () =
  let seconds =
    match seconds with Some s -> s | None -> if quick then 0.05 else 0.3
  in
  let trials = match trials with Some t -> t | None -> if quick then 1 else 3 in
  check_sweep ~max_domains ~seconds ~trials ~read_shares;
  let rec powers d = if d > max_domains then [] else d :: powers (2 * d) in
  { domain_counts = powers 1;
    read_shares;
    seconds;
    warmup_seconds = (if quick then 0.02 else 0.15);
    trials;
    quick }

type row = {
  structure : string;
  impl : string;
  backend : string;  (* "boxed" | "unboxed" | "combining" | "adaptive" *)
  domains : int;
  read_pct : int;
  mops : float;        (* median over trials *)
  trial_mops : float list;
  rsd : float;         (* relative stddev of the trials: stddev/mean *)
  oversubscribed : bool;  (* domains > recommended_domains of this host *)
  (* adaptive dispatch (adaptive rows only; cumulative over the cell's
     warmup + trials + latency passes, which share one instance) *)
  epoch_flips : int option;
  time_in_combining_pct : float option;
  (* metered pass *)
  lat_p50 : float;     (* ns per op *)
  lat_p95 : float;
  lat_p99 : float;
  lat_max : float;
  lat_samples : int;   (* batched-call samples behind the percentiles *)
  metrics : Obs.Metrics.totals option;  (* None on the boxed backend *)
}

(* {1 Workload construction}

   Honest measurement of sub-10ns operations needs the loop body to be the
   operation itself, so each cell runs a fused, batched closure:

   - the read/write mix is a precomputed 128-slot Bresenham pattern,
     decided per op by one array load and a mask (an integer division
     would cost as much as the unboxed operation being measured);
   - each structure op is one call.  Every bench entry point builds in
     dune's dev profile, whose [-opaque] hides other modules'
     implementations, so an op of an unboxed structure or of a
     {!Harness.Adaptive.Alg_a} instance compiles to one indirect call
     ([call *%reg], or [caml_applyN] for several arguments) whether the
     loop names its module or takes it from the {!targets} table — which
     is why one loop per structure kind serves every target.  A release
     build would turn a named call into a direct one and leave the
     table's indirect, so this one-call parity assumes the dev profile.
     The boxed side's first-class memory module per step is part of the
     representation cost being measured;
   - each closure performs [batch] operations per invocation, so the
     harness's stop-flag read and bookkeeping amortize to noise
     ({!Harness.Throughput.run_batched}).

   The structures measured are exactly the ones the registry
   ({!Harness.Instances.maxreg_backend} / [counter_unboxed]) hands out;
   only the call path is flattened here.  The combining column is the
   adaptive cell pinned to the combining path — the registry's
   combining backend is that same pinning.  The metered pass, by
   contrast, goes through the registry's instances — a second indirect
   call per op, which is fine: its numbers are distributions and
   counts, not the throughput of record. *)

let pattern_slots = 128
let mask = pattern_slots - 1
let batch = 64

(* Evenly interleaved deterministic mix: read share quantized to
   [reads]/128 (error at most 1/256: 99% -> 127/128 = 99.2%).  The same
   pattern drives both backends, so the schedules compared are
   identical. *)
let read_pattern ~read_pct =
  let reads = ((read_pct * pattern_slots) + 50) / 100 in
  Array.init pattern_slots (fun i ->
      ((i + 1) * reads / pattern_slots) - (i * reads / pattern_slots) = 1)

type kind =
  | Maxreg of Harness.Instances.maxreg_impl
  | Counter of Harness.Instances.counter_impl

let names = function
  | Maxreg impl -> ("max-register", Harness.Instances.maxreg_name impl)
  | Counter impl -> ("counter", Harness.Instances.counter_name impl)

type backend = [ `Boxed | `Unboxed | `Combining | `Adaptive ]

(* A target's unboxed-compile structure as the timed loops call it.
   [update] is [write_max] for a max register and [add] for a counter,
   which the loops call with 1 (the body of [increment]).  [adaptive]
   wraps the structure in its {!Harness.Adaptive.Alg_a} instance, [None]
   where the registry has no dispatch backend. *)
type 's ops = {
  create : n:int -> 's;
  read : 's -> int;
  update : 's -> pid:int -> int -> unit;
  adaptive : (domains:int -> 's -> Harness.Adaptive.Alg_a.t) option;
}

type target = Target : kind * 's ops -> target

module AD = Harness.Adaptive.Alg_a
module AU = Unboxed.Algorithm_a
module BU = Unboxed.B1_maxreg
module CU = Unboxed.Cas_maxreg
module FU = Unboxed.Farray_counter
module NU = Unboxed.Naive_counter

let targets =
  let open Harness.Instances in
  [ Target
      ( Maxreg Algorithm_a,
        { create = (fun ~n -> AU.create ~n ());
          read = AU.read_max;
          update = AU.write_max;
          adaptive = Some (fun ~domains reg -> AD.make ~domains reg) } );
    Target
      ( Maxreg B1_maxreg,
        { create = (fun ~n:_ -> BU.create ());
          read = BU.read_max;
          update = BU.write_max;
          adaptive = None } );
    Target
      ( Maxreg Cas_maxreg,
        { create = (fun ~n:_ -> CU.create ());
          read = CU.read_max;
          update = CU.write_max;
          adaptive = None } );
    Target
      ( Counter Farray_counter,
        { create = (fun ~n -> FU.create ~n ());
          read = FU.read;
          update = FU.add;
          adaptive = None } );
    Target
      ( Counter Naive_counter,
        { create = (fun ~n -> NU.create ~n ());
          read = NU.read;
          update = NU.add;
          adaptive = None } ) ]

(* The batch loop of each structure kind: [read] on [r], the update on
   [w] — the structure itself, or on a dispatch column the adaptive
   instance over it.  Max registers write strictly increasing,
   domain-disjoint values [i * domains + d]: every write really updates
   (monotone streams), and the CAS-based propagation paths stay
   ABA-free.  Note the combining backend sees the same stream, so its
   eliminations count races lost to other domains, not stale replays.
   Counters add 1.  Inlined into each cell's closure, so a batch costs
   no call beyond its operations'. *)
let[@inline] batch_loop kind ~pattern ~domains read r update w d i0 =
  match kind with
  | Maxreg _ ->
    for k = 0 to batch - 1 do
      let i = i0 + k in
      if Array.unsafe_get pattern (i land mask) then ignore (read r : int)
      else update w ~pid:d ((i * domains) + d)
    done
  | Counter _ ->
    for k = 0 to batch - 1 do
      if Array.unsafe_get pattern ((i0 + k) land mask) then
        ignore (read r : int)
      else update w ~pid:d 1
    done

(* A target's closure on an unboxed-compile column plus, for an
   adaptive cell, the report thunk ({!Harness.Adaptive.Alg_a.report}:
   current mode, epoch count, flips, combining-ops share).  A dispatch
   cell wraps the structure with [adaptive] and runs the same loop,
   reading the structure directly and updating through the per-op path
   every caller runs: [AD.update] (mode check, stale tally, tick) on the
   adaptive column, [AD.update_combining] (the combining path pinned, as
   the registry's combining backend is) on the combining one.  The
   unboxed loop also serves the d=1 combining/adaptive cells
   (create-time solo dispatch: one participating domain can never
   contend, so those backends at domains = 1 *are* the plain unboxed
   structure, the dispatcher compiled away), which report [None].  So
   every unboxed row and every d=1 dispatch row runs the SAME compiled
   closure and differs only in data — a separate copy of an identical
   loop can land on different code alignment and skew sub-3ns cells by
   ~10%.  The boxed column is {!boxed_cell}, shared by every target. *)
let cell (Target (kind, { create; read; update; adaptive })) ~backend ~n
    ~domains ~pattern =
  let s = create ~n in
  match (backend, adaptive) with
  | (`Combining | `Adaptive), Some make when domains > 1 ->
    let a = make ~domains s in
    let pinned = backend = `Combining in
    let update = if pinned then AD.update_combining else AD.update in
    ( (fun d i0 -> batch_loop kind ~pattern ~domains read s update a d i0),
      if pinned then None else Some (fun () -> AD.report a) )
  | _ ->
    ((fun d i0 -> batch_loop kind ~pattern ~domains read s update s d i0), None)

(* The boxed column: the boxed compile of the same structure over native
   atomics, as the registry's closed instance.  The instance-record call
   per op is noise next to the boxed path's own dispatch (a first-class
   memory module per step); no target is AAC, so no bound applies. *)
let boxed_cell kind ~n ~domains ~pattern =
  let read, update =
    match kind with
    | Maxreg impl ->
      let reg = Harness.Instances.maxreg_native ~n ~bound:0 impl in
      (reg.read_max, fun d i -> reg.write_max ~pid:d ((i * domains) + d))
    | Counter impl ->
      let c = Harness.Instances.counter_native ~n ~bound:0 impl in
      (c.read, fun d _ -> c.increment ~pid:d)
  in
  fun d i0 ->
    for k = 0 to batch - 1 do
      let i = i0 + k in
      if Array.unsafe_get pattern (i land mask) then ignore (read () : int)
      else update d i
    done

(* The registry backend behind each column ([None]: boxed). *)
let registry : backend -> Harness.Instances.backend option = function
  | `Boxed -> None
  | `Unboxed -> Some Harness.Instances.Unboxed
  | `Combining -> Some Harness.Instances.Combining
  | `Adaptive -> Some (Harness.Instances.Adaptive None)

(* The metered closure: the same workload through the instrumented
   registry instance, recording [Op_read] per read here (the instance
   wrappers record [Op_update]; reads carry no pid so the domain-correct
   shard is only known at this call site).  Returns the dispatch
   handle, if any, for the combine-stats flush.  [None] where the
   registry has no such instance, which is also how each target's
   backend list is derived. *)
let metered_op ~metrics ~kind ~backend ~n ~domains ~pattern =
  match kind with
  | Maxreg impl ->
    Option.map
      (fun ((inst : Maxreg.Max_register.instance), dispatch) ->
        ( (fun d i0 ->
            for k = 0 to batch - 1 do
              let i = i0 + k in
              if Array.unsafe_get pattern (i land mask) then begin
                Obs.Metrics.incr metrics ~domain:d Obs.Metrics.Op_read;
                ignore (inst.read_max () : int)
              end
              else inst.write_max ~pid:d ((i * domains) + d)
            done),
          dispatch ))
      (Harness.Instances.maxreg_backend ~metrics backend ~n ~domains
         (Harness.Instances.Impl impl))
  | Counter impl ->
    Option.map
      (fun (inst : Counters.Counter.instance) ->
        ( (fun d i0 ->
            for k = 0 to batch - 1 do
              if Array.unsafe_get pattern ((i0 + k) land mask) then begin
                Obs.Metrics.incr metrics ~domain:d Obs.Metrics.Op_read;
                ignore (inst.read () : int)
              end
              else inst.increment ~pid:d
            done),
          None ))
      (match backend with
       | Harness.Instances.Unboxed ->
         Harness.Instances.counter_unboxed ~metrics ~n
           (Harness.Instances.Impl impl)
       | Harness.Instances.Combining | Harness.Instances.Adaptive _ -> None)

(* Each target with its columns: boxed, plus every registry backend that
   builds it.  Probed once, at program start, not between the sweep's
   cell allocations: the probe instances would shift where later cells
   land, and the unpadded boxed cells' throughput at d=2 depends on
   their placement (two domains' cells sharing a cache line). *)
let columns =
  List.map
    (fun (Target (kind, _) as target) ->
      ( kind,
        target,
        List.filter
          (fun b ->
            match registry b with
            | None -> true
            | Some backend ->
              Option.is_some
                (metered_op ~metrics:Obs.Metrics.disabled ~kind ~backend ~n:1
                   ~domains:1 ~pattern:[||]))
          [ `Boxed; `Unboxed; `Combining; `Adaptive ] ))
    targets

(* Trials can in principle produce NaN (a degenerate measurement window);
   drop non-finite samples before sorting — NaN has no consistent order
   under [compare], so it can scramble the sort — and average the two
   middle elements on even length.  (Taking the upper-middle element
   alone, as before, biased every even-trial-count median high.) *)
let median xs =
  match List.sort Float.compare (List.filter Float.is_finite xs) with
  | [] -> nan
  | sorted ->
    let n = List.length sorted in
    if n mod 2 = 1 then List.nth sorted (n / 2)
    else (List.nth sorted ((n / 2) - 1) +. List.nth sorted (n / 2)) /. 2.

(* Relative standard deviation of the trials (sample stddev / mean): the
   per-row noise figure of merit.  0 for fewer than two finite samples or
   a non-positive mean — those rows are degenerate, and the median/NaN
   path already exposes them. *)
let rsd xs =
  let s = Harness.Stats.summarize xs in
  if s.Harness.Stats.count < 2 || s.Harness.Stats.mean <= 0. then 0.
  else s.Harness.Stats.stddev /. s.Harness.Stats.mean

(* Trials noisier than this (stddev over a quarter of the mean) get
   flagged in the table; treat such rows as unreliable. *)
let rsd_flag_threshold = 0.25

let backend_name : backend -> string = function
  | `Boxed -> "boxed"
  | `Unboxed -> "unboxed"
  | `Combining -> "combining"
  | `Adaptive -> "adaptive"

(* Structures are sized once for the sweep's largest domain count (the
   usual benchmark convention: a structure built for P processes, of which
   [domains] are active), so single-domain rows exercise the same tree
   depths as the scaled rows rather than a degenerate one-leaf instance. *)
let structure_n cfg = List.fold_left max 1 cfg.domain_counts

(* {1 The sweep}

   All cells are built before any timing: the fused closure and its
   structure persist for the cell's whole life, so the warmup pass and
   every earlier trial round warm exactly the code and memory that later
   rounds measure (satellite fix for trial-to-trial variance: previously
   each cell ran its trials back-to-back right after a cold-ish start,
   and sweep-order drift correlated with the cell grid). *)

type cell = {
  c_kind : kind;
  c_backend : backend;
  c_domains : int;
  c_read_pct : int;
  c_pattern : bool array;
  c_op : int -> int -> unit;
  c_report : (unit -> Harness.Adaptive.report) option;
      (* the timed adaptive instance's dispatch report; None elsewhere *)
  mutable c_trials : float list;  (* reverse trial order *)
}

let make_cells cfg =
  let n = structure_n cfg in
  List.concat_map
    (fun (kind, target, backends) ->
      List.concat_map
        (fun backend ->
          List.concat_map
            (fun domains ->
              List.map
                (fun read_pct ->
                  let pattern = read_pattern ~read_pct in
                  let op, report =
                    match backend with
                    | `Boxed -> (boxed_cell kind ~n ~domains ~pattern, None)
                    | (`Unboxed | `Combining | `Adaptive) as backend ->
                      cell target ~backend ~n ~domains ~pattern
                  in
                  { c_kind = kind;
                    c_backend = backend;
                    c_domains = domains;
                    c_read_pct = read_pct;
                    c_pattern = pattern;
                    c_op = op;
                    c_report = report;
                    c_trials = [] })
                cfg.read_shares)
            cfg.domain_counts)
        backends)
    columns

(* Latency + metrics epilogue for one cell, after all trial rounds. *)
let finish_cell ~cfg ~recommended (c : cell) =
  let n = structure_n cfg in
  let hists = Array.init c.c_domains (fun _ -> Obs.Histogram.create ()) in
  ignore
    (Harness.Throughput.run_batched_latency ~domains:c.c_domains
       ~seconds:cfg.seconds ~batch ~hist:hists ~op:c.c_op ()
      : float);
  (* Metrics pass (every registry backend): the same workload through
     the instrumented registry instances.  Separate from the latency
     pass so the record sites and the instances' indirect calls never
     sit inside the clocked window. *)
  let metrics =
    Option.map
      (fun backend ->
        let metrics = Obs.Metrics.create ~domains:c.c_domains () in
        let op_m, dispatch =
          Option.get
            (metered_op ~metrics ~kind:c.c_kind ~backend ~n
               ~domains:c.c_domains ~pattern:c.c_pattern)
        in
        ignore
          (Harness.Throughput.run_batched ~domains:c.c_domains
             ~seconds:cfg.seconds ~batch ~op:op_m ()
            : float);
        Option.iter
          (fun (d : Harness.Instances.dispatch) ->
            Obs.Metrics.record_combine_stats metrics ~domain:0
              (Smem.Combine.stats d.arena))
          dispatch;
        Obs.Metrics.totals metrics)
      (registry c.c_backend)
  in
  let h =
    Array.fold_left
      (fun acc h -> Obs.Histogram.merge acc h)
      (Obs.Histogram.create ()) hists
  in
  (* Dispatch report of the TIMED adaptive instance (cumulative over
     warmup + trials + the latency pass, which share it).  A solo
     adaptive cell (domains = 1, create-time dispatch to the plain
     structure) reports zero flips and an all-plain ops share — true by
     construction. *)
  let epoch_flips, time_in_combining_pct =
    match c.c_report with
    | Some r ->
      let rep = r () in
      ( Some rep.Harness.Adaptive.epoch_flips,
        Some rep.Harness.Adaptive.combining_ops_pct )
    | None ->
      if c.c_backend = `Adaptive then (Some 0, Some 0.) else (None, None)
  in
  let trial_mops = List.rev c.c_trials in
  let structure, impl = names c.c_kind in
  { structure;
    impl;
    backend = backend_name c.c_backend;
    domains = c.c_domains;
    read_pct = c.c_read_pct;
    mops = median trial_mops;
    trial_mops;
    rsd = rsd trial_mops;
    oversubscribed = c.c_domains > recommended;
    epoch_flips;
    time_in_combining_pct;
    lat_p50 = Obs.Histogram.percentile h 50.;
    lat_p95 = Obs.Histogram.percentile h 95.;
    lat_p99 = Obs.Histogram.percentile h 99.;
    lat_max = float_of_int (Obs.Histogram.max_value h);
    lat_samples = Obs.Histogram.count h;
    metrics }

let sweep ?(progress = fun _ -> ()) cfg =
  let recommended = Harness.Throughput.recommended_domains () in
  List.iter
    (fun d ->
      if d > recommended then
        progress
          (Printf.sprintf
             "WARNING: domains=%d exceeds this host's recommended_domains=%d; \
              those rows time scheduler multiplexing too and are marked \
              oversubscribed"
             d recommended))
    cfg.domain_counts;
  let cells = make_cells cfg in
  progress (Printf.sprintf "warmup: %d cells" (List.length cells));
  List.iter
    (fun c ->
      ignore
        (Harness.Throughput.run_batched ~domains:c.c_domains
           ~seconds:cfg.warmup_seconds ~batch ~op:c.c_op ()
          : float))
    cells;
  for round = 1 to cfg.trials do
    progress (Printf.sprintf "trial round %d/%d" round cfg.trials);
    List.iter
      (fun c ->
        let m =
          Harness.Throughput.run_batched ~domains:c.c_domains
            ~seconds:cfg.seconds ~batch ~op:c.c_op ()
          /. 1e6
        in
        c.c_trials <- m :: c.c_trials)
      cells
  done;
  let last_group = ref "" in
  List.map
    (fun c ->
      let structure, impl = names c.c_kind in
      let group =
        Printf.sprintf "latency+metrics: %s/%s (%s)" structure impl
          (backend_name c.c_backend)
      in
      if group <> !last_group then begin
        last_group := group;
        progress group
      end;
      finish_cell ~cfg ~recommended c)
    cells

(* {1 Reporting} *)

let table rows =
  Harness.Tables.render
    ~title:
      "Native domain-scaling throughput: boxed (Simval Atomic) vs unboxed \
       (padded int Atomic) vs flat-combining vs adaptive backends (Mops/s, \
       median of interleaved trials; rsd = stddev/mean, '!' over 0.25; '*' \
       marks oversubscribed domain counts; latency percentiles and CAS \
       failure rate from the metered pass; flips/comb% = adaptive epoch \
       flips and combining-mode ops share of the timed instance)"
    ~header:
      [ "structure"; "impl"; "backend"; "domains"; "read%"; "Mops/s"; "rsd";
        "p50ns"; "p99ns"; "cas-fail%"; "flips"; "comb%" ]
    (List.map
       (fun (r : row) ->
         [ r.structure; r.impl; r.backend;
           string_of_int r.domains ^ (if r.oversubscribed then "*" else "");
           string_of_int r.read_pct; Printf.sprintf "%.2f" r.mops;
           Printf.sprintf "%.2f%s" r.rsd
             (if r.rsd > rsd_flag_threshold then "!" else "");
           Printf.sprintf "%.0f" r.lat_p50;
           Printf.sprintf "%.0f" r.lat_p99;
           (match r.metrics with
            | None -> "-"
            | Some m ->
              Printf.sprintf "%.1f" (100. *. Obs.Metrics.cas_failure_rate m));
           (match r.epoch_flips with
            | None -> "-"
            | Some f -> string_of_int f);
           (match r.time_in_combining_pct with
            | None -> "-"
            | Some p -> Printf.sprintf "%.0f" p) ])
       rows)

let schema_version = "bench-native/v4"

let metrics_json (m : Obs.Metrics.totals) =
  Obs.Json_out.Obj
    [ ("cas_attempts", Obs.Json_out.Int m.cas_attempts);
      ("cas_failures", Obs.Json_out.Int m.cas_failures);
      ("cas_failure_rate", Obs.Json_out.Float (Obs.Metrics.cas_failure_rate m));
      ("refresh_rounds", Obs.Json_out.Int m.refresh_rounds);
      ("helps", Obs.Json_out.Int m.helps);
      ("op_reads", Obs.Json_out.Int m.op_reads);
      ("op_updates", Obs.Json_out.Int m.op_updates);
      ("fault_yields", Obs.Json_out.Int m.fault_yields);
      ("fault_gcs", Obs.Json_out.Int m.fault_gcs);
      ("fault_stalls", Obs.Json_out.Int m.fault_stalls);
      ("combined_ops", Obs.Json_out.Int m.combined_ops);
      ("batches", Obs.Json_out.Int m.batches);
      ("batch_max", Obs.Json_out.Int m.batch_max);
      ("eliminations", Obs.Json_out.Int m.eliminations);
      ("combiner_locks", Obs.Json_out.Int m.combiner_locks) ]

let to_json ~cfg rows =
  let open Obs.Json_out in
  Obj
    [ ("schema", Str schema_version);
      ( "host",
        Obj
          [ ("ocaml", Str Sys.ocaml_version);
            ("word_size", Int Sys.word_size);
            ( "recommended_domains",
              Int (Harness.Throughput.recommended_domains ()) ) ] );
      ( "config",
        Obj
          [ ("quick", Bool cfg.quick);
            ("structure_n", Int (structure_n cfg));
            ( "domain_counts",
              List (List.map (fun d -> Int d) cfg.domain_counts) );
            ( "read_shares",
              List (List.map (fun s -> Int s) cfg.read_shares) );
            ("seconds_per_trial", Float cfg.seconds);
            ("warmup_seconds", Float cfg.warmup_seconds);
            ("trials", Int cfg.trials);
            ("batch", Int batch) ] );
      ( "rows",
        List
          (List.map
             (fun (r : row) ->
               Obj
                 [ ("structure", Str r.structure);
                   ("impl", Str r.impl);
                   ("backend", Str r.backend);
                   ("domains", Int r.domains);
                   ("read_pct", Int r.read_pct);
                   ("mops", Float r.mops);
                   ( "trial_mops",
                     List
                       (List.map (fun m -> Float m) r.trial_mops) );
                   ("rsd", Float r.rsd);
                   ("oversubscribed", Bool r.oversubscribed);
                   ( "epoch_flips",
                     match r.epoch_flips with
                     | None -> Null
                     | Some f -> Int f );
                   ( "time_in_combining_pct",
                     match r.time_in_combining_pct with
                     | None -> Null
                     | Some p -> Float p );
                   ( "latency_ns",
                     Obj
                       [ ("p50", Float r.lat_p50);
                         ("p95", Float r.lat_p95);
                         ("p99", Float r.lat_p99);
                         ("max", Float r.lat_max);
                         ("samples", Int r.lat_samples) ] );
                   ( "metrics",
                     match r.metrics with
                     | None -> Null
                     | Some m -> metrics_json m ) ])
             rows) ) ]
