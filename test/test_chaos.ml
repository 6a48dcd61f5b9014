(* Native-backend chaos: linearizability of histories collected under
   preemption/GC injection, a deliberately broken fixture that the burst
   checker must catch, stall-one-domain progress, fault counters, and a
   large invariant run under sustained chaos. *)

let lin_maxreg ~n = Linearize.Checker.check (module Linearize.Spec.Max_register) ~n
let lin_counter ~n = Linearize.Checker.check (module Linearize.Spec.Counter) ~n
let lin_snapshot ~n = Linearize.Checker.check (module Linearize.Spec.Snapshot) ~n

(* Aggressive injection rates so short test runs still see plenty of
   faults; chaos decisions stay deterministic per (seed, domain, index). *)
let cfg ?metrics seed =
  Harness.Chaos.config ~yield_ppm:200_000 ~storm:32 ~gc_ppm:50_000
    ~gc_bytes:2048 ?metrics ~seed ()

let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* {1 Bursts under chaos linearize} *)

let test_burst_maxreg () =
  List.iter
    (fun seed ->
      let c = cfg seed in
      let reg = Harness.Chaos.maxreg c ~n:3 ~bound:64 Harness.Instances.Algorithm_a in
      let ops = Harness.Chaos.burst_maxreg c ~domains:3 ~ops_per_domain:8 reg in
      Alcotest.(check int) "burst size" 24 (Array.length ops);
      Alcotest.(check bool)
        (Printf.sprintf "algorithm A burst linearizes (seed %d)" seed)
        true
        (lin_maxreg ~n:3 ops))
    seeds

let test_burst_counter () =
  List.iter
    (fun seed ->
      let c = cfg seed in
      let cnt = Harness.Chaos.counter c ~n:3 ~bound:64 Harness.Instances.Farray_counter in
      let ops = Harness.Chaos.burst_counter c ~domains:3 ~ops_per_domain:8 cnt in
      Alcotest.(check bool)
        (Printf.sprintf "f-array counter burst linearizes (seed %d)" seed)
        true
        (lin_counter ~n:3 ops))
    seeds

let test_burst_snapshot () =
  List.iter
    (fun seed ->
      let c = cfg seed in
      let s = Harness.Chaos.snapshot c ~n:3 Harness.Instances.Farray_snapshot in
      let ops = Harness.Chaos.burst_snapshot c ~domains:3 ~ops_per_domain:6 s in
      Alcotest.(check bool)
        (Printf.sprintf "f-array snapshot burst linearizes (seed %d)" seed)
        true
        (lin_snapshot ~n:3 ops))
    seeds

(* The dispatch backends under the same aggressive chaos: injection
   happens at op boundaries (the arena's Atomics are inlined), so storms
   park domains right after publishing to a slot, releasing the combiner
   lock or crossing an epoch boundary — the histories must still
   linearize. *)
let burst_backend backend label =
  List.iter
    (fun seed ->
      let c = cfg seed in
      List.iter
        (fun impl ->
          let reg, _ =
            Option.get
              (Harness.Instances.maxreg_backend backend ~n:3 ~domains:3
                 (Harness.Instances.Impl impl))
          in
          let ops =
            Harness.Chaos.burst_maxreg c ~domains:3 ~ops_per_domain:8
              (Harness.Chaos.instrument_maxreg c reg)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s burst linearizes (seed %d)" label
               (Harness.Instances.maxreg_name impl)
               seed)
            true
            (lin_maxreg ~n:3 ops))
        [ Harness.Instances.Algorithm_a; Harness.Instances.Cas_maxreg ];
      let cnt, _ =
        Option.get
          (Harness.Instances.counter_backend backend ~n:3 ~domains:3
             (Harness.Instances.Impl Harness.Instances.Farray_counter))
      in
      let ops =
        Harness.Chaos.burst_counter c ~domains:3 ~ops_per_domain:8
          (Harness.Chaos.instrument_counter c cnt)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s f-array counter burst linearizes (seed %d)" label
           seed)
        true
        (lin_counter ~n:3 ops))
    seeds

let test_burst_combining () =
  burst_backend Harness.Instances.Combining "combining"

(* And soaks: exact totals and maxima through the arena protocol under
   sustained chaos, too many ops for full history checking.  The
   adaptive soak runs a flip-prone policy (epoch every 64 updates,
   combining bar 0, benefit bar 10) that keeps the dispatcher
   oscillating, so plain CAS updates race arena applies across hundreds
   of mixed-mode windows — the invariants must hold anyway. *)
let soak_backend c backend label =
  let domains = 4 in
  let per_domain = 5_000 in
  let cnt, cd =
    Option.get
      (Harness.Instances.counter_backend backend ~n:domains ~domains
         (Harness.Instances.Impl Harness.Instances.Farray_counter))
  in
  let cnt = Harness.Chaos.instrument_counter c cnt in
  let (_ : unit array) =
    Harness.Chaos.Inject.spawn_indexed domains (fun pid ->
        for _ = 1 to per_domain do
          cnt.increment ~pid
        done)
  in
  Alcotest.(check int)
    (label ^ " counter exact under chaos")
    (domains * per_domain) (cnt.read ());
  let reg, rd =
    Option.get
      (Harness.Instances.maxreg_backend backend ~n:domains ~domains
         (Harness.Instances.Impl Harness.Instances.Algorithm_a))
  in
  let reg = Harness.Chaos.instrument_maxreg c reg in
  let (_ : unit array) =
    Harness.Chaos.Inject.spawn_indexed domains (fun pid ->
        for v = 1 to per_domain do
          reg.write_max ~pid ((v * domains) + pid)
        done)
  in
  Alcotest.(check int)
    (label ^ " maximum exact under chaos")
    ((per_domain * domains) + (domains - 1))
    (reg.read_max ());
  (Option.get cd, Option.get rd)

let test_combining_invariants_under_chaos () =
  let _, rd = soak_backend (cfg 97) Harness.Instances.Combining "combining" in
  (* every update is accounted for somewhere: lock-held drains,
     combined batches, or eliminations *)
  let s = Smem.Combine.stats rd.Harness.Instances.arena in
  Alcotest.(check bool) "arena saw activity" true
    (s.Smem.Combine.lock_acquisitions + s.Smem.Combine.eliminations > 0)

let test_adaptive_invariants_under_chaos () =
  let flip_policy = { Harness.Adaptive.Policy.thrash with epoch_ops = 64 } in
  let cd, rd =
    soak_backend (cfg 131)
      (Harness.Instances.Adaptive (Some flip_policy))
      "adaptive"
  in
  let cr = cd.Harness.Instances.report () in
  Alcotest.(check bool) "counter flips bounded and present" true
    (cr.Harness.Adaptive.epoch_flips > 0
    && cr.Harness.Adaptive.epoch_flips <= cr.Harness.Adaptive.epochs);
  Alcotest.(check bool) "combining share within [0, 100]" true
    (cr.Harness.Adaptive.combining_ops_pct >= 0.
    && cr.Harness.Adaptive.combining_ops_pct <= 100.);
  let r = rd.Harness.Instances.report () in
  Alcotest.(check bool) "maxreg flips present" true
    (r.Harness.Adaptive.epoch_flips > 0);
  (* with the benefit bar unreachable, combining windows are transient:
     some ops ran there, but the dispatcher always comes back *)
  Alcotest.(check bool) "combining share strictly inside (0, 100)" true
    (r.Harness.Adaptive.combining_ops_pct > 0.
    && r.Harness.Adaptive.combining_ops_pct < 100.)

(* Adaptive backends under chaos.  Two flavors per seed: the default
   policies (dispatch machinery live, flips rare at burst scale), and
   the flip-forcing {!Harness.Adaptive.Policy.thrash}, so the mode flips
   back and forth INSIDE the burst while storms land astride the epoch
   lock.  Histories must linearize either way. *)
let test_burst_adaptive () =
  burst_backend (Harness.Instances.Adaptive None) "adaptive"

let test_burst_adaptive_thrashing () =
  let thrash =
    Harness.Instances.Adaptive (Some Harness.Adaptive.Policy.thrash)
  in
  List.iter
    (fun seed ->
      let c = cfg seed in
      let reg, d =
        Option.get
          (Harness.Instances.maxreg_backend thrash ~n:3 ~domains:3
             (Harness.Instances.Impl Harness.Instances.Algorithm_a))
      in
      let ops =
        Harness.Chaos.burst_maxreg c ~domains:3 ~ops_per_domain:8
          (Harness.Chaos.instrument_maxreg c reg)
      in
      Alcotest.(check bool)
        (Printf.sprintf
           "adaptive algorithm A burst linearizes across flips (seed %d)" seed)
        true
        (lin_maxreg ~n:3 ops);
      let r = (Option.get d).Harness.Instances.report () in
      Alcotest.(check bool)
        (Printf.sprintf "thrash policy actually flipped (seed %d)" seed)
        true
        (r.Harness.Adaptive.epoch_flips > 0);
      let cnt, cd =
        Option.get
          (Harness.Instances.counter_backend thrash ~n:3 ~domains:3
             (Harness.Instances.Impl Harness.Instances.Farray_counter))
      in
      let ops =
        Harness.Chaos.burst_counter c ~domains:3 ~ops_per_domain:8
          (Harness.Chaos.instrument_counter c cnt)
      in
      Alcotest.(check bool)
        (Printf.sprintf
           "adaptive f-array burst linearizes across flips (seed %d)" seed)
        true
        (lin_counter ~n:3 ops);
      let cr = (Option.get cd).Harness.Instances.report () in
      Alcotest.(check bool)
        (Printf.sprintf "counter thrash policy flipped (seed %d)" seed)
        true
        (cr.Harness.Adaptive.epoch_flips > 0))
    seeds

let test_burst_rejects_oversize () =
  let c = cfg 1 in
  let reg = Harness.Chaos.maxreg c ~n:2 ~bound:64 Harness.Instances.Cas_maxreg in
  Alcotest.check_raises "over 62 ops refused"
    (Invalid_argument "Chaos.burst: more than 62 operations (checker limit)")
    (fun () ->
      ignore
        (Harness.Chaos.burst_maxreg c ~domains:7 ~ops_per_domain:9 reg
          : Linearize.History.op array))

(* {1 A deliberately broken fixture is caught}

   A max register whose write is read-then-write with a widened race
   window: two domains racing lose updates, and a subsequent read
   observes a value below an already-returned write — not linearizable.
   The burst checker must catch it within a few seeds.  The window is a
   1 ms sleep, not a spin: a sleeping domain yields its CPU, so other
   domains' writes land inside the window however loaded the host is
   (a spin of a few microseconds could run whole without a preemption). *)

let broken_maxreg () : Maxreg.Max_register.instance =
  let cell = Atomic.make 0 in
  { read_max = (fun () -> Atomic.get cell);
    write_max =
      (fun ~pid:_ v ->
        let cur = Atomic.get cell in
        if v > cur then begin
          Unix.sleepf 0.001;
          Atomic.set cell v
        end) }

let test_broken_fixture_caught () =
  let caught = ref None in
  let seed = ref 0 in
  while !caught = None && !seed < 100 do
    incr seed;
    let c = cfg !seed in
    let reg = broken_maxreg () in
    let ops = Harness.Chaos.burst_maxreg c ~domains:4 ~ops_per_domain:8 reg in
    if not (lin_maxreg ~n:4 ops) then caught := Some !seed
  done;
  match !caught with
  | Some seed ->
    (* replayability: the op mix is deterministic from the seed, so the
       report "seed N violated" is an actionable repro line *)
    Alcotest.(check bool)
      (Printf.sprintf "lost-update register caught (seed %d)" seed)
      true true
  | None -> Alcotest.fail "lost-update register never caught in 100 bursts"

(* {1 Stall-one-domain: non-blocking progress} *)

let test_stall_one_domain_counter () =
  let metrics = Obs.Metrics.create ~domains:4 () in
  (* yield-only injection: forced minor collections are stop-the-world
     across domains, which on a single-core host adds multi-ms barrier
     costs to every domain and would drown the signal this test measures
     (who waits for whom at the algorithm level) *)
  let c =
    Harness.Chaos.config ~yield_ppm:50_000 ~storm:16 ~gc_ppm:0 ~metrics
      ~seed:7 ()
  in
  let cnt = Harness.Chaos.counter c ~n:4 ~bound:1024 Harness.Instances.Farray_counter in
  let ops = 200 in
  let stall_s = 0.4 in
  let report =
    Harness.Chaos.run_stall_one c ~domains:4 ~stalled:0 ~stall_s ~ops
      ~op:(fun ~pid _i -> cnt.increment ~pid)
  in
  Alcotest.(check (array int)) "every domain completed all its ops"
    [| ops; ops; ops; ops |] report.Harness.Chaos.completed;
  Alcotest.(check int) "counter total exact despite the stall" (4 * ops)
    (cnt.read ());
  (* wait-freedom on hardware: the running domains never wait for the
     stalled one, so their wall-clock must not absorb the stall *)
  Array.iteri
    (fun pid elapsed ->
      if pid <> report.Harness.Chaos.stalled then
        Alcotest.(check bool)
          (Printf.sprintf "domain %d did not absorb the stall (%.3fs)" pid
             elapsed)
          true
          (elapsed < stall_s /. 2.))
    report.Harness.Chaos.elapsed;
  Alcotest.(check bool) "stalled domain did absorb it" true
    (report.Harness.Chaos.elapsed.(0) >= stall_s);
  Alcotest.(check int) "stall recorded in metrics" 1
    (Obs.Metrics.totals metrics).Obs.Metrics.fault_stalls

(* {1 Fault counters} *)

let test_fault_counters_recorded () =
  let metrics = Obs.Metrics.create ~domains:2 () in
  let c =
    Harness.Chaos.config ~yield_ppm:500_000 ~storm:4 ~gc_ppm:400_000
      ~gc_bytes:256 ~metrics ~seed:11 ()
  in
  let reg = Harness.Chaos.maxreg c ~n:2 ~bound:64 Harness.Instances.Cas_maxreg in
  for v = 1 to 200 do
    reg.write_max ~pid:0 v
  done;
  let t = Obs.Metrics.totals metrics in
  Alcotest.(check bool)
    (Printf.sprintf "yield storms recorded (%d)" t.Obs.Metrics.fault_yields)
    true
    (t.Obs.Metrics.fault_yields > 0);
  Alcotest.(check bool)
    (Printf.sprintf "gc pressure recorded (%d)" t.Obs.Metrics.fault_gcs)
    true
    (t.Obs.Metrics.fault_gcs > 0);
  (* zero-rate config injects nothing *)
  let quiet = Obs.Metrics.create ~domains:2 () in
  let c0 =
    Harness.Chaos.config ~yield_ppm:0 ~gc_ppm:0 ~metrics:quiet ~seed:11 ()
  in
  let reg0 = Harness.Chaos.maxreg c0 ~n:2 ~bound:64 Harness.Instances.Cas_maxreg in
  for v = 1 to 50 do
    reg0.write_max ~pid:0 v
  done;
  let q = Obs.Metrics.totals quiet in
  Alcotest.(check int) "quiet config injects nothing" 0
    (q.Obs.Metrics.fault_yields + q.Obs.Metrics.fault_gcs)

(* {1 Config validation}

   regression: rates summing past one million silently shrank the GC
   share (one roll decides both), a negative [gc_bytes] raised inside a
   worker domain at the first GC event, and a negative [storm] recorded
   yield storms that never spun. *)

let test_config_rejects () =
  let rates =
    Invalid_argument
      "Chaos.config: yield_ppm and gc_ppm must be >= 0 and sum to at most \
       1_000_000"
  in
  Alcotest.check_raises "rates summing past 1_000_000" rates (fun () ->
      ignore (Harness.Chaos.config ~yield_ppm:600_000 ~gc_ppm:500_000 ~seed:1 ()));
  Alcotest.check_raises "negative yield rate" rates (fun () ->
      ignore (Harness.Chaos.config ~yield_ppm:(-1) ~seed:1 ()));
  Alcotest.check_raises "negative gc_bytes"
    (Invalid_argument "Chaos.config: gc_bytes must be >= 0") (fun () ->
      ignore (Harness.Chaos.config ~gc_bytes:(-1) ~seed:1 ()));
  Alcotest.check_raises "negative storm"
    (Invalid_argument "Chaos.config: storm must be >= 0") (fun () ->
      ignore (Harness.Chaos.config ~storm:(-1) ~seed:1 ()));
  (* the boundaries themselves are accepted *)
  ignore
    (Harness.Chaos.config ~yield_ppm:600_000 ~gc_ppm:400_000 ~storm:0
       ~gc_bytes:0 ~seed:1 ()
      : Harness.Chaos.config)

(* {1 Large invariant run under sustained chaos}

   The acceptance-scale runs (>= 10^6 ops per structure) live in
   [stress.exe --chaos] and CI; this is the same machinery at test scale:
   parallel domains under injection, exact totals and monotone maxima. *)

let test_invariants_under_chaos () =
  let domains = 4 in
  let per_domain = 10_000 in
  (* production injection rates; the aggressive [cfg] rates are for the
     short bursts above (acceptance-scale runs live in stress --chaos) *)
  let c = Harness.Chaos.config ~seed:21 () in
  let cnt =
    Harness.Chaos.counter c ~n:domains ~bound:(1 lsl 30)
      Harness.Instances.Farray_counter
  in
  let (_ : unit array) =
    Harness.Chaos.Inject.spawn_indexed domains (fun pid ->
        for _ = 1 to per_domain do
          cnt.increment ~pid
        done)
  in
  Alcotest.(check int) "counter total exact under chaos"
    (domains * per_domain) (cnt.read ());
  let reg =
    Harness.Chaos.maxreg c ~n:domains ~bound:(1 lsl 30)
      Harness.Instances.Algorithm_a
  in
  let monotone = ref true in
  let (_ : unit array) =
    Harness.Chaos.Inject.spawn_indexed domains (fun pid ->
        if pid = 0 then begin
          let last = ref 0 in
          for _ = 1 to per_domain do
            let v = reg.read_max () in
            if v < !last then monotone := false;
            last := v
          done
        end
        else
          for v = 1 to per_domain do
            reg.write_max ~pid ((v * domains) + pid)
          done)
  in
  Alcotest.(check bool) "algorithm A reads monotone under chaos" true !monotone;
  Alcotest.(check int) "final maximum exact"
    ((per_domain * domains) + (domains - 1))
    (reg.read_max ())

let () =
  Alcotest.run "chaos"
    [ ( "bursts",
        [ Alcotest.test_case "algorithm A bursts linearize" `Quick
            test_burst_maxreg;
          Alcotest.test_case "f-array counter bursts linearize" `Quick
            test_burst_counter;
          Alcotest.test_case "f-array snapshot bursts linearize" `Quick
            test_burst_snapshot;
          Alcotest.test_case "combining bursts linearize" `Quick
            test_burst_combining;
          Alcotest.test_case "adaptive bursts linearize" `Quick
            test_burst_adaptive;
          Alcotest.test_case "adaptive bursts linearize across flips" `Quick
            test_burst_adaptive_thrashing;
          Alcotest.test_case "oversize burst refused" `Quick
            test_burst_rejects_oversize ] );
      ( "broken fixture",
        [ Alcotest.test_case "lost-update register caught" `Quick
            test_broken_fixture_caught ] );
      ( "stall one domain",
        [ Alcotest.test_case "counter progress unaffected" `Quick
            test_stall_one_domain_counter ] );
      ( "fault counters",
        [ Alcotest.test_case "yields and gc recorded, quiet mode silent"
            `Quick test_fault_counters_recorded ] );
      ( "config",
        [ Alcotest.test_case "bad settings refused" `Quick
            test_config_rejects ] );
      ( "invariants",
        [ Alcotest.test_case "totals exact, maxima monotone" `Slow
            test_invariants_under_chaos;
          Alcotest.test_case "combining totals and maxima exact" `Slow
            test_combining_invariants_under_chaos;
          Alcotest.test_case "adaptive totals and maxima exact across flips"
            `Slow test_adaptive_invariants_under_chaos ] ) ]
