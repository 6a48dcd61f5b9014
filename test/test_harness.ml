(* Tests for the harness utilities: the counting-memory wrapper, step
   measurement, statistics, and table rendering. *)

open Memsim

(* {1 Counting memory} *)

let test_counting_memory () =
  let counting, counts =
    Smem.Counting_memory.wrap (module Smem.Atomic_memory)
  in
  let module M = (val counting) in
  let r = M.make (Simval.Int 0) in
  ignore (M.read r);
  ignore (M.read r);
  M.write r (Simval.Int 5);
  ignore (M.cas r ~expected:(Simval.Int 5) ~desired:(Simval.Int 6));
  ignore (M.cas r ~expected:(Simval.Int 99) ~desired:(Simval.Int 7));
  Alcotest.(check int) "reads" 2 counts.Smem.Counting_memory.reads;
  Alcotest.(check int) "writes" 1 counts.Smem.Counting_memory.writes;
  Alcotest.(check int) "cas" 2 counts.Smem.Counting_memory.cas;
  Alcotest.(check int) "total" 5 (Smem.Counting_memory.total counts);
  Smem.Counting_memory.reset counts;
  Alcotest.(check int) "reset" 0 (Smem.Counting_memory.total counts)

let test_counting_wrapper_is_isolated () =
  let m1, c1 = Smem.Counting_memory.wrap (module Smem.Atomic_memory) in
  let m2, c2 = Smem.Counting_memory.wrap (module Smem.Atomic_memory) in
  let module M1 = (val m1) in
  let module M2 = (val m2) in
  let r1 = M1.make (Simval.Int 0) and r2 = M2.make (Simval.Int 0) in
  ignore (M1.read r1);
  ignore (M1.read r1);
  ignore (M2.read r2);
  Alcotest.(check int) "m1 counts" 2 c1.Smem.Counting_memory.reads;
  Alcotest.(check int) "m2 counts" 1 c2.Smem.Counting_memory.reads

(* The counting wrapper agrees with the simulator's own step accounting. *)
let test_counting_agrees_with_sim () =
  let session = Session.create () in
  let counting, counts = Smem.Counting_memory.wrap (Smem.Sim_memory.bind session) in
  let module A = Boxed.Algorithm_a in
  let reg = Boxed.Raw.with_memory counting (A.create ~n:16) in
  Session.reset_steps session;
  Smem.Counting_memory.reset counts;
  A.write_max reg ~pid:0 7;
  ignore (A.read_max reg);
  Alcotest.(check int) "same total"
    (Session.direct_steps session)
    (Smem.Counting_memory.total counts)

(* {1 Measurement} *)

let test_measure_steps () =
  let session = Session.create () in
  let a = Session.alloc session ~name:"a" (Simval.Int 0) in
  let steps =
    Harness.Measure.steps session (fun () ->
        ignore (Session.read session a);
        Session.write session a (Simval.Int 1))
  in
  Alcotest.(check int) "two events" 2 steps

let test_measure_max_steps () =
  let session = Session.create () in
  let a = Session.alloc session ~name:"a" (Simval.Int 0) in
  let worst =
    Harness.Measure.max_steps session ~trials:5 (fun i ->
        for _ = 0 to i do
          ignore (Session.read session a)
        done)
  in
  Alcotest.(check int) "worst trial issues 5 reads" 5 worst

let test_measure_powers () =
  Alcotest.(check (list int)) "powers" [ 2; 4; 8; 16 ]
    (Harness.Measure.powers ~start:2 ~stop:16);
  Alcotest.(check (list int)) "stop not power" [ 3; 6; 12 ]
    (Harness.Measure.powers ~start:3 ~stop:13)

(* {1 Statistics} *)

let test_stats () =
  let s = Harness.Stats.summarize [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check int) "count" 4 s.Harness.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Harness.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1. s.Harness.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4. s.Harness.Stats.max;
  (* sample stddev (Bessel-corrected): sqrt(5/3), not the population
     sqrt(5/4) — benchmark trials are a sample, not the population *)
  Alcotest.(check (float 1e-6)) "stddev" 1.290994449 s.Harness.Stats.stddev

let test_stats_single () =
  let s = Harness.Stats.summarize [ 7. ] in
  Alcotest.(check int) "count" 1 s.Harness.Stats.count;
  Alcotest.(check (float 1e-9)) "stddev defined (0) for n=1" 0.
    s.Harness.Stats.stddev

let test_stats_empty () =
  let s = Harness.Stats.summarize [] in
  Alcotest.(check int) "count" 0 s.Harness.Stats.count;
  (* no infinite extremes leaking out of the fold's seed values *)
  Alcotest.(check (float 0.)) "min" 0. s.Harness.Stats.min;
  Alcotest.(check (float 0.)) "max" 0. s.Harness.Stats.max

let test_stats_nonfinite_dropped () =
  let s = Harness.Stats.summarize [ 1.; nan; 3.; infinity ] in
  Alcotest.(check int) "count" 2 s.Harness.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 2. s.Harness.Stats.mean;
  Alcotest.(check (float 1e-9)) "max" 3. s.Harness.Stats.max;
  let s = Harness.Stats.summarize [ nan ] in
  Alcotest.(check int) "all dropped" 0 s.Harness.Stats.count;
  Alcotest.(check (float 0.)) "empty min" 0. s.Harness.Stats.min

let test_stats_ints () =
  let s = Harness.Stats.summarize_ints [ 10; 20 ] in
  Alcotest.(check (float 1e-9)) "mean" 15. s.Harness.Stats.mean

(* {1 Throughput window arithmetic}

   Pin the elapsed-time denominator against a scripted clock: the rate
   must be [operations / measured elapsed], never [operations /
   requested seconds].  (The old accounting divided by the request,
   counting spawn cost, startup skew and post-sleep operations into a
   window that didn't contain them.) *)

let scripted_clock times =
  let i = ref 0 in
  fun () ->
    let k = !i in
    incr i;
    if k < Array.length times then times.(k) else times.(Array.length times - 1)

let test_run_alone_measured_window () =
  (* now() call sites: deadline base, t0, loop checks..., t1 after exit.
     Script one chunk (1024 ops at batch 1) and a window of 2.0 measured
     seconds: the rate must be 1024 / 2.0 regardless of the requested
     1.0s. *)
  let now = scripted_clock [| 0.0; 0.0; 0.5; 1.5; 2.0 |] in
  let ops = ref 0 in
  let rate =
    Harness.Throughput.run_alone ~now ~seconds:1.0 ~batch:1
      ~op:(fun _ _ -> incr ops) ()
  in
  Alcotest.(check int) "one chunk ran" 1024 !ops;
  Alcotest.(check (float 1e-9)) "ops / measured elapsed" 512. rate

let test_run_batched_measured_window () =
  (* multi-domain: now() is called exactly twice (t0 at the start
     barrier, t1 after stop is acknowledged); sleep is a no-op so the
     workers run only for the flag-flip interval.  Whatever they manage
     to do, the denominator must be the scripted t1 - t0 = 2.5s, and
     every counted call must lie inside the acknowledged window. *)
  let now = scripted_clock [| 10.0; 12.5 |] in
  let batch = 4 in
  let calls = Atomic.make 0 in
  (* "sleep" until the workers have demonstrably operated, so the window
     provably contains work without depending on real time *)
  let sleep _ =
    while Atomic.get calls < 8 do
      Domain.cpu_relax ()
    done
  in
  let rate =
    Harness.Throughput.run_batched ~now ~sleep ~domains:2 ~seconds:99.0 ~batch
      ~op:(fun _ _ -> Atomic.incr calls)
      ()
  in
  let counted = float_of_int (batch * Atomic.get calls) in
  Alcotest.(check bool) "workers made progress" true (counted > 0.);
  (* rate * elapsed recovers exactly the operations the workers counted *)
  Alcotest.(check (float 1e-6)) "ops / measured elapsed" counted (rate *. 2.5)

let test_run_batched_latency_alone_window () =
  (* domains = 1 latency path: same call sites as run_alone but one op
     per loop iteration.  deadline base 0.0 (-> 1.0), t0 = 0.0, one
     check at 0.5 (runs the op), exit check at 2.0, t1 = 2.0: exactly
     one batched call, denominator 2.0 measured seconds. *)
  let now = scripted_clock [| 0.0; 0.0; 0.5; 2.0; 2.0 |] in
  let hist = [| Obs.Histogram.create () |] in
  let calls = ref 0 in
  let rate =
    Harness.Throughput.run_batched_latency ~now ~domains:1 ~seconds:1.0
      ~batch:4 ~hist
      ~op:(fun _ _ -> incr calls)
      ()
  in
  Alcotest.(check int) "one batched call" 1 !calls;
  Alcotest.(check int) "one latency sample" 1 (Obs.Histogram.count hist.(0));
  Alcotest.(check (float 1e-9)) "ops / measured elapsed" 2.0 rate

let test_run_batched_latency_measured_window () =
  (* multi-domain latency path: the window clock is scripted (t0, t1 are
     the only now() calls), the per-op latencies still come from the
     monotonic clock.  The rate times the scripted elapsed must recover
     exactly the published operation count, and every batched call must
     have recorded one histogram sample. *)
  let now = scripted_clock [| 10.0; 12.5 |] in
  let batch = 4 in
  let calls = Atomic.make 0 in
  let sleep _ =
    while Atomic.get calls < 8 do
      Domain.cpu_relax ()
    done
  in
  let hist = Array.init 2 (fun _ -> Obs.Histogram.create ()) in
  let rate =
    Harness.Throughput.run_batched_latency ~now ~sleep ~domains:2
      ~seconds:99.0 ~batch ~hist
      ~op:(fun _ _ -> Atomic.incr calls)
      ()
  in
  let calls = Atomic.get calls in
  Alcotest.(check bool) "workers made progress" true (calls > 0);
  Alcotest.(check (float 1e-6)) "ops / measured elapsed"
    (float_of_int (batch * calls))
    (rate *. 2.5);
  Alcotest.(check int) "one latency sample per batched call" calls
    (Obs.Histogram.count hist.(0) + Obs.Histogram.count hist.(1))

(* {1 Tables} *)

let test_table_render () =
  let out =
    Harness.Tables.render ~title:"T" ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "has title" true
    (String.length out > 0 && String.sub out 0 4 = "## T");
  (* all data rows present *)
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains out needle))
    [ "| a "; "| bb"; "| 333" ]

let test_table_ragged_rows () =
  (* short rows are padded, long headers accommodated *)
  let out =
    Harness.Tables.render ~title:"T" ~header:[ "col" ] [ [ "x"; "extra" ] ]
  in
  Alcotest.(check bool) "renders" true (String.length out > 0)

(* {1 Baseline diffing: asymmetric rows must be visible, not skipped} *)

module B = Benchkit.Baseline
module J = Obs.Json_out

let entry ~structure ~impl ?(backend = "native") ?(domains = 1)
    ?(read_pct = 50) ~mops () =
  { B.structure; impl; backend; domains; read_pct; mops }

let doc_of_entries es =
  J.Obj
    [ ("schema", J.Str "bench-native/v4");
      ( "rows",
        J.List
          (List.map
             (fun (e : B.entry) ->
               J.Obj
                 [ ("structure", J.Str e.structure);
                   ("impl", J.Str e.impl);
                   ("backend", J.Str e.backend);
                   ("domains", J.Int e.domains);
                   ("read_pct", J.Int e.read_pct);
                   ("mops", J.Float e.mops) ])
             es) ) ]

(* regression: rows present on only one side used to vanish without a
   trace from [diff] — with fully disjoint row sets the report claimed
   "0/1 rows matched" and nothing else.  Both sides must now be
   reported, warn-only. *)
let test_baseline_disjoint_rows_warn () =
  let base = [ entry ~structure:"counter" ~impl:"farray" ~mops:10. () ] in
  let cur = [ entry ~structure:"maxreg" ~impl:"cas" ~mops:20. () ] in
  let d = B.diff ~baseline:base ~current:cur in
  Alcotest.(check int) "no matches" 0 (List.length d.B.matched);
  Alcotest.(check int) "baseline-only counted" 1
    (List.length d.B.baseline_only);
  Alcotest.(check int) "current-only counted" 1 (List.length d.B.current_only);
  let a =
    B.analyze ~baseline:(doc_of_entries base) ~current:(doc_of_entries cur) ()
  in
  let mentions sub =
    List.exists
      (fun w ->
        let n = String.length w and m = String.length sub in
        let rec go i = i + m <= n && (String.sub w i m = sub || go (i + 1)) in
        go 0)
      a.B.warnings
  in
  Alcotest.(check bool) "baseline-only row warned about" true
    (mentions "only in the baseline");
  Alcotest.(check bool) "current-only row warned about" true
    (mentions "only in the current run");
  Alcotest.(check bool) "named in the warning" true
    (mentions "counter/farray" && mentions "maxreg/cas");
  Alcotest.(check int) "still warn-only: no regressions" 0
    (B.regression_count a)

let test_baseline_bad_mops_warn () =
  (* a matched key whose baseline mops is 0 or non-finite is unusable
     for a ratio, but must be flagged rather than skipped *)
  let base = [ entry ~structure:"counter" ~impl:"farray" ~mops:0. () ] in
  let cur = [ entry ~structure:"counter" ~impl:"farray" ~mops:20. () ] in
  let d = B.diff ~baseline:base ~current:cur in
  Alcotest.(check int) "no matches" 0 (List.length d.B.matched);
  Alcotest.(check int) "bad baseline counted" 1 (List.length d.B.bad_baseline);
  Alcotest.(check int) "not misreported as baseline-only" 0
    (List.length d.B.baseline_only)

let test_baseline_symmetric_rows_quiet () =
  (* identical key sets must not trip the asymmetry warnings *)
  let base = [ entry ~structure:"counter" ~impl:"farray" ~mops:10. () ] in
  let cur = [ entry ~structure:"counter" ~impl:"farray" ~mops:11. () ] in
  let d = B.diff ~baseline:base ~current:cur in
  Alcotest.(check int) "matched" 1 (List.length d.B.matched);
  Alcotest.(check int) "no baseline-only" 0 (List.length d.B.baseline_only);
  Alcotest.(check int) "no current-only" 0 (List.length d.B.current_only);
  Alcotest.(check int) "no bad baseline" 0 (List.length d.B.bad_baseline)

(* {1 Bench sweep configs refuse bad inputs}

   regression: [--seconds 0] and [--trials 0] used to write every row
   with a nan mops and exit 0, [--read-shares 150,-10] was measured as
   50% and 0% (read_pattern misquantizes out-of-range shares),
   [--max-domains 0] silently ran d=1, [--read-shares ""] wrote zero
   rows and exited 0, and [--read-shares 50,50] wrote rows with
   duplicate keys. *)

let refused what f =
  Alcotest.(check bool) (what ^ " refused") true
    (match f () with _ -> false | exception Invalid_argument _ -> true)

let test_bench_config_rejects () =
  let both what ?max_domains ?seconds ?trials ?read_shares () =
    refused ("native: " ^ what) (fun () ->
        Benchkit.Bench_native.config ?max_domains ?seconds ?trials
          ?read_shares ());
    refused ("dial: " ^ what) (fun () ->
        Benchkit.Bench_dial.config ?max_domains ?seconds ?trials ?read_shares
          ())
  in
  both "seconds 0" ~seconds:0. ();
  both "negative seconds" ~seconds:(-1.) ();
  both "nan seconds" ~seconds:nan ();
  both "infinite seconds" ~seconds:infinity ();
  both "trials 0" ~trials:0 ();
  both "share 150" ~read_shares:[ 0; 150 ] ();
  both "share -10" ~read_shares:[ -10 ] ();
  both "no shares" ~read_shares:[] ();
  both "repeated share" ~read_shares:[ 50; 90; 50 ] ();
  both "max-domains 0" ~max_domains:0 ();
  (* the boundaries themselves are accepted *)
  ignore
    (Benchkit.Bench_native.config ~max_domains:1 ~seconds:1e-3 ~trials:1
       ~read_shares:[ 0; 100 ] ()
      : Benchkit.Bench_native.config);
  ignore
    (Benchkit.Bench_dial.config ~max_domains:1 ~seconds:1e-3 ~trials:1
       ~read_shares:[ 0; 100 ] ()
      : Benchkit.Bench_dial.config)

(* The dial sweep's rows use bench-native's statistics: regression, its
   private median took the upper-middle trial (biased high on even
   trial counts) and its rsd the population variance. *)
let test_dial_rows_use_shared_stats () =
  let cfg =
    Benchkit.Bench_dial.config ~max_domains:1 ~seconds:1e-3 ~trials:2
      ~read_shares:[ 50 ] ()
  in
  List.iter
    (fun (r : Benchkit.Bench_dial.row) ->
      let at what =
        Printf.sprintf "%s %s" (Treeprim.Dial.name r.t_dial) what
      in
      Alcotest.(check int) (at "trials") 2 (List.length r.trial_mops);
      Alcotest.(check (float 0.)) (at "mops")
        (Benchkit.Bench_native.median r.trial_mops) r.mops;
      Alcotest.(check (float 0.)) (at "rsd")
        (Benchkit.Bench_native.rsd r.trial_mops) r.rsd)
    (Benchkit.Bench_dial.sweep cfg)

(* The sweep's columns are the registry's: each target on every backend
   the registry builds it for — algorithm-a, cas-loop, farray and naive
   on all four, B1 on boxed and unboxed — once per cell, each with a
   positive rate. *)
let test_bench_columns () =
  let cfg =
    Benchkit.Bench_native.config ~quick:true ~max_domains:1 ~trials:1
      ~seconds:1e-3 ~read_shares:[ 50 ] ()
  in
  let rows =
    B.entries_of_doc
      (Benchkit.Bench_native.to_json ~cfg (Benchkit.Bench_native.sweep cfg))
  in
  let all = [ "boxed"; "unboxed"; "combining"; "adaptive" ] in
  let expected =
    List.concat_map
      (fun (s, i, backends) -> List.map (fun b -> (s, i, b)) backends)
      [ ("max-register", "algorithm-a", all);
        ("max-register", "aac-unbounded-b1", [ "boxed"; "unboxed" ]);
        ("max-register", "cas-loop", all);
        ("counter", "farray", all);
        ("counter", "naive", all) ]
  in
  Alcotest.(check int) "18 columns" 18 (List.length expected);
  Alcotest.(check (list (triple string string string)))
    "one row per column"
    (List.sort compare expected)
    (List.sort compare
       (List.map (fun (e : B.entry) -> (e.structure, e.impl, e.backend)) rows));
  List.iter
    (fun (e : B.entry) ->
      if not (e.mops > 0.) then
        Alcotest.failf "%s/%s (%s): mops %g" e.structure e.impl e.backend
          e.mops)
    rows

let () =
  Alcotest.run "harness"
    [ ( "counting memory",
        [ Alcotest.test_case "counts primitives" `Quick test_counting_memory;
          Alcotest.test_case "isolated instances" `Quick test_counting_wrapper_is_isolated;
          Alcotest.test_case "agrees with sim" `Quick test_counting_agrees_with_sim ] );
      ( "measure",
        [ Alcotest.test_case "steps" `Quick test_measure_steps;
          Alcotest.test_case "max_steps" `Quick test_measure_max_steps;
          Alcotest.test_case "powers" `Quick test_measure_powers ] );
      ( "stats",
        [ Alcotest.test_case "summary" `Quick test_stats;
          Alcotest.test_case "single sample" `Quick test_stats_single;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "non-finite dropped" `Quick
            test_stats_nonfinite_dropped;
          Alcotest.test_case "ints" `Quick test_stats_ints ] );
      ( "throughput window",
        [ Alcotest.test_case "run_alone measured elapsed" `Quick
            test_run_alone_measured_window;
          Alcotest.test_case "run_batched measured elapsed" `Quick
            test_run_batched_measured_window;
          Alcotest.test_case "latency runner (1 domain) measured elapsed"
            `Quick test_run_batched_latency_alone_window;
          Alcotest.test_case "latency runner measured elapsed" `Quick
            test_run_batched_latency_measured_window ] );
      ( "tables",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows ] );
      ( "baseline",
        [ Alcotest.test_case "disjoint rows warn both ways" `Quick
            test_baseline_disjoint_rows_warn;
          Alcotest.test_case "unusable baseline mops warns" `Quick
            test_baseline_bad_mops_warn;
          Alcotest.test_case "symmetric rows stay quiet" `Quick
            test_baseline_symmetric_rows_quiet ] );
      ( "bench config",
        [ Alcotest.test_case "bad sweep inputs refused" `Quick
            test_bench_config_rejects;
          Alcotest.test_case "dial rows use the shared statistics" `Quick
            test_dial_rows_use_shared_stats;
          Alcotest.test_case "sweep rows are the registry's 18 columns"
            `Quick test_bench_columns ] ) ]
