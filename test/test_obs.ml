(* Tests for the observability layer (lib/obs): sharded metric counters,
   log-bucketed latency histograms, JSON round-tripping and the Chrome
   trace exporter — plus the exact totals the metered updates record and
   the zero-allocation guard for disabled instrumentation. *)

module H = Obs.Histogram
module M = Obs.Metrics
module J = Obs.Json_out

(* {1 Histogram: bucket geometry} *)

let test_bucket_bounds_small () =
  (* values below 32 are exact: bucket = value, width 1 *)
  for v = 0 to 31 do
    Alcotest.(check int) (Printf.sprintf "bucket of %d" v) v (H.bucket_of_value v);
    Alcotest.(check int) (Printf.sprintf "lower of %d" v) v
      (H.value_of_bucket (H.bucket_of_value v));
    Alcotest.(check int) (Printf.sprintf "width of %d" v) 1
      (H.bucket_width (H.bucket_of_value v))
  done

let qcheck_bucket_contains =
  QCheck.Test.make ~count:2000 ~name:"bucket_of_value lands v inside its bucket"
    QCheck.(map abs int)
    (fun v ->
      let b = H.bucket_of_value v in
      let lo = H.value_of_bucket b in
      let w = H.bucket_width b in
      b >= 0 && b < H.n_buckets && lo <= v
      && (v < lo + w || b = H.n_buckets - 1))

let qcheck_bucket_error =
  QCheck.Test.make ~count:2000
    ~name:"quantization error bounded by one sub-bucket (~3%)"
    QCheck.(map (fun i -> abs i) int)
    (fun v ->
      let b = H.bucket_of_value v in
      b = H.n_buckets - 1
      || float_of_int (H.bucket_width b) <= Float.max 1. (0.04 *. float_of_int v))

(* The round-trip bound the .mli documents: the bucket's lower bound
   never overshoots and never lags the value by more than one part in
   sub_count (= 32), over the FULL non-negative int range — exact in the
   linear region below 32, lower-bound-only in the clamping top
   bucket.  [i land max_int] covers the whole range without the
   [abs min_int] sign trap. *)
let qcheck_bucket_roundtrip =
  QCheck.Test.make ~count:4000
    ~name:"value_of_bucket (bucket_of_value v) within 1/32 of v"
    QCheck.(map (fun i -> i land max_int) int)
    (fun v ->
      let b = H.bucket_of_value v in
      let lo = H.value_of_bucket b in
      if v < 32 then lo = v
      else if b = H.n_buckets - 1 then lo <= v
      else
        lo <= v
        && float_of_int (v - lo) /. float_of_int v <= 1. /. 32.)

(* {1 Histogram: record / stats / percentiles} *)

let test_hist_exact_stats () =
  let h = H.create () in
  List.iter (H.record h) [ 5; 1; 9; 9; 3 ];
  Alcotest.(check int) "count" 5 (H.count h);
  Alcotest.(check int) "min" 1 (H.min_value h);
  Alcotest.(check int) "max" 9 (H.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 5.4 (H.mean h);
  (* all values < 32 are exact, so percentiles are too (modulo clamping) *)
  Alcotest.(check (float 1e-9)) "p0 = min" 1. (H.percentile h 0.);
  Alcotest.(check (float 1e-9)) "p100 = max" 9. (H.percentile h 100.);
  Alcotest.(check (float 1e-9)) "p50 = median" 5. (H.percentile h 50.)

let test_hist_empty () =
  let h = H.create () in
  Alcotest.(check int) "count" 0 (H.count h);
  Alcotest.(check int) "min" 0 (H.min_value h);
  Alcotest.(check int) "max" 0 (H.max_value h);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (H.mean h));
  (* regression: percentile on an empty histogram used to return nan,
     which poisons JSON rendering and every downstream comparison; it
     now reports 0 like min_value/max_value do *)
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%.0f empty = 0" p)
        0. (H.percentile h p))
    [ 0.; 50.; 95.; 99.; 100. ]

(* regression: a single sample in a wide log bucket must be reported
   exactly at every p — the bucket midpoint may lie below the sample and
   the bucket lower bound certainly does; the clamp to [min, max] is
   what guarantees exactness here. *)
let test_hist_single_sample () =
  let v = 1_000_003 in
  let h = H.create () in
  H.record h v;
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%.0f single = sample" p)
        (float_of_int v) (H.percentile h p))
    [ 0.; 1.; 50.; 95.; 99.; 100. ];
  Alcotest.(check bool)
    "bucket lower bound is below the sample (clamp is load-bearing)" true
    (H.value_of_bucket (H.bucket_of_value v) < v)

let test_hist_weird_p_clamps () =
  let h = H.create () in
  List.iter (H.record h) [ 2; 4; 6 ];
  Alcotest.(check (float 1e-9)) "p(-5) = p0" (H.percentile h 0.)
    (H.percentile h (-5.));
  Alcotest.(check (float 1e-9)) "p(250) = p100" (H.percentile h 100.)
    (H.percentile h 250.);
  Alcotest.(check (float 1e-9)) "p(nan) = p0" (H.percentile h 0.)
    (H.percentile h Float.nan)

let test_hist_negative_clamps () =
  let h = H.create () in
  H.record h (-17);
  Alcotest.(check int) "count" 1 (H.count h);
  Alcotest.(check int) "min" 0 (H.min_value h);
  Alcotest.(check int) "max" 0 (H.max_value h)

let hist_of_list vs =
  let h = H.create () in
  List.iter (H.record h) vs;
  h

let nonneg_list = QCheck.(list_of_size Gen.(1 -- 200) (map abs small_int))

let qcheck_percentile_monotone =
  QCheck.Test.make ~count:500 ~name:"percentiles monotone in p"
    QCheck.(pair nonneg_list (pair (float_bound_inclusive 100.) (float_bound_inclusive 100.)))
    (fun (vs, (p, q)) ->
      let h = hist_of_list vs in
      let p, q = (Float.min p q, Float.max p q) in
      H.percentile h p <= H.percentile h q)

let qcheck_percentile_in_range =
  QCheck.Test.make ~count:500 ~name:"percentiles within [min, max]"
    QCheck.(pair nonneg_list (float_bound_inclusive 100.))
    (fun (vs, p) ->
      let h = hist_of_list vs in
      let x = H.percentile h p in
      float_of_int (H.min_value h) <= x && x <= float_of_int (H.max_value h))

(* same invariant over wide log buckets, where midpoints sit far from
   the sample and only the clamp keeps the value inside [min, max] —
   singleton lists included so the single-sample case is fuzzed too *)
let qcheck_percentile_in_range_large =
  QCheck.Test.make ~count:300 ~name:"percentiles within [min, max] (large values)"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40) (int_range 0 1_000_000_000))
        (float_bound_inclusive 100.))
    (fun (vs, p) ->
      let h = hist_of_list vs in
      let x = H.percentile h p in
      float_of_int (H.min_value h) <= x && x <= float_of_int (H.max_value h))

let qcheck_merge_commutes =
  QCheck.Test.make ~count:500 ~name:"merge commutes"
    QCheck.(pair nonneg_list nonneg_list)
    (fun (xs, ys) ->
      let a = H.merge (hist_of_list xs) (hist_of_list ys) in
      let b = H.merge (hist_of_list ys) (hist_of_list xs) in
      H.count a = H.count b
      && H.min_value a = H.min_value b
      && H.max_value a = H.max_value b
      && List.for_all
           (fun p -> H.percentile a p = H.percentile b p)
           [ 0.; 50.; 95.; 99.; 100. ])

let qcheck_merge_is_concat =
  QCheck.Test.make ~count:500 ~name:"merge == recording the concatenation"
    QCheck.(pair nonneg_list nonneg_list)
    (fun (xs, ys) ->
      let m = H.merge (hist_of_list xs) (hist_of_list ys) in
      let c = hist_of_list (xs @ ys) in
      H.count m = H.count c
      && H.min_value m = H.min_value c
      && H.max_value m = H.max_value c
      && Float.equal (H.mean m) (H.mean c)
      && List.for_all
           (fun p -> H.percentile m p = H.percentile c p)
           [ 0.; 25.; 50.; 95.; 100. ])

(* {1 Metrics: sharding, merge-on-read, reset} *)

let test_metrics_totals () =
  let m = M.create ~domains:3 () in
  M.incr m ~domain:0 M.Cas_attempt;
  M.incr m ~domain:1 M.Cas_attempt;
  M.incr m ~domain:2 M.Cas_attempt;
  M.incr m ~domain:1 M.Cas_failure;
  M.add m ~domain:2 M.Refresh_round 5;
  M.incr m ~domain:0 M.Help;
  M.incr m ~domain:0 M.Op_read;
  M.incr m ~domain:0 M.Op_update;
  let t = M.totals m in
  Alcotest.(check int) "cas attempts" 3 t.M.cas_attempts;
  Alcotest.(check int) "cas failures" 1 t.M.cas_failures;
  Alcotest.(check int) "refresh rounds" 5 t.M.refresh_rounds;
  Alcotest.(check int) "helps" 1 t.M.helps;
  Alcotest.(check int) "op reads" 1 t.M.op_reads;
  Alcotest.(check int) "op updates" 1 t.M.op_updates;
  Alcotest.(check (float 1e-9)) "failure rate" (1. /. 3.)
    (M.cas_failure_rate t);
  M.reset m;
  Alcotest.(check int) "reset" 0 (M.totals m).M.cas_attempts

let test_metrics_domain_folding () =
  (* shard count rounds up to a power of two; any domain index is valid
     and folds onto an existing shard without losing counts *)
  let m = M.create ~domains:3 () in
  for d = 0 to 40 do
    M.incr m ~domain:d M.Op_update
  done;
  Alcotest.(check int) "all counted" 41 (M.totals m).M.op_updates

let test_metrics_disabled () =
  Alcotest.(check bool) "disabled" false (M.enabled M.disabled);
  M.incr M.disabled ~domain:0 M.Cas_attempt;
  M.add M.disabled ~domain:7 M.Help 3;
  Alcotest.(check int) "stays zero" 0
    (M.total_of (M.totals M.disabled) M.Cas_attempt)

let test_metrics_totals_roundtrip () =
  let m = M.create ~domains:2 () in
  List.iter
    (fun c ->
      M.add m ~domain:0 c 2;
      M.add m ~domain:1 c 3)
    M.all_counters;
  let t = M.totals m in
  List.iter
    (fun c ->
      (* every counter sums across shards except Batch_max, which
         max-merges (a "largest batch" is not additive) *)
      let expect = if c = M.Batch_max then 3 else 5 in
      Alcotest.(check int) (M.counter_name c) expect (M.total_of t c))
    M.all_counters

(* {1 What the metered updates record}

   A scripted solo sequence on the unboxed compile, with exact totals
   per operation.  Solo, every refresh CAS installs, so an update that
   propagates from a leaf at depth d records 2d refresh rounds, 2d CAS
   attempts and no failure; an update that skips propagation records
   nothing.  The same script under {!M.disabled} must record nothing
   (and reach no shard: the disabled handle has none). *)

let totals = Alcotest.testable M.pp_totals ( = )
let nothing = M.zero_totals

let walk ?(helps = 0) depth =
  { M.zero_totals with
    refresh_rounds = 2 * depth;
    cas_attempts = 2 * depth;
    helps }

(* Depth of [pid]'s leaf inside its dial block: a complete tree over
   the block's leaves. *)
let dial_leaf_depth ~n dial pid =
  let bsize = Treeprim.Dial.block_size ~n dial in
  let size = min bsize (n - (pid / bsize * bsize)) in
  let _, leaves = Treeprim.Tree_shape.complete ~mk:ignore ~nleaves:size () in
  Treeprim.Tree_shape.depth leaves.(pid mod bsize)

let metered_script ~metrics check =
  let n = 64 in
  let module A = Unboxed.Algorithm_a in
  let a = A.create ~n () in
  let write_a ~pid v () = A.write_max_metered a ~metrics ~pid v in
  check "alg A: fresh TR write" (walk (A.tr_leaf_depth a 3)) (write_a ~pid:3 100);
  check "alg A: fresh TL write" (walk (A.tl_leaf_depth a 5)) (write_a ~pid:0 5);
  check "alg A: repeated TL value helps"
    (walk ~helps:1 (A.tl_leaf_depth a 5))
    (write_a ~pid:1 5);
  check "alg A: stale TR write" nothing (write_a ~pid:3 99);
  let module F = Unboxed.Farray_counter in
  let c = F.create ~n () in
  check "farray counter: increment" (walk 6) (fun () ->
      F.increment_metered c ~metrics ~pid:3);
  check "farray counter: add" (walk 6) (fun () ->
      F.add_metered c ~metrics ~pid:3 5);
  let module C = Unboxed.Cas_maxreg in
  let r = C.create () in
  check "cas-loop: fresh write" { nothing with cas_attempts = 1 } (fun () ->
      C.write_max_metered r ~metrics ~pid:0 7);
  check "cas-loop: stale write" nothing (fun () ->
      C.write_max_metered r ~metrics ~pid:1 3);
  List.iter
    (fun dial ->
      let at what pid =
        Printf.sprintf "%s %s pid %d" (Treeprim.Dial.name dial) what pid
      in
      let module D = Unboxed.Dial_counter in
      let module R = Unboxed.Dial_maxreg in
      let d = D.create ~n ~dial () in
      let r = R.create ~n ~dial () in
      List.iter
        (fun pid ->
          let depth = dial_leaf_depth ~n dial pid in
          check (at "dial counter: increment" pid) (walk depth) (fun () ->
              D.increment_metered d ~metrics ~pid);
          check (at "dial counter: add" pid) (walk depth) (fun () ->
              D.add_metered d ~metrics ~pid 3);
          check (at "dial maxreg: fresh write" pid) (walk depth) (fun () ->
              R.write_max_metered r ~metrics ~pid (100 + pid));
          check (at "dial maxreg: stale write" pid) nothing (fun () ->
              R.write_max_metered r ~metrics ~pid pid))
        [ 0; 1; 10; 63 ])
    Treeprim.Dial.all

let test_metered_totals () =
  let m = M.create ~domains:64 () in
  metered_script ~metrics:m (fun name expected op ->
      M.reset m;
      op ();
      Alcotest.check totals name expected (M.totals m));
  metered_script ~metrics:M.disabled (fun name _ op ->
      op ();
      Alcotest.check totals (name ^ ", disabled") nothing (M.totals M.disabled))

(* A failed refresh CAS is counted: two f-array updates over the
   simulator (the boxed compile of the same source) under a fixed
   schedule, where process 1 completes a refresh of the root between
   process 0's reads and its CAS. *)
let test_metered_failed_cas () =
  let module S = Memsim.Scheduler in
  let session = Memsim.Session.create () in
  let fa =
    Boxed.Raw.with_memory (Smem.Sim_memory.bind session)
      (Boxed.Farray.create ~n:2 ~combine:Memsim.Simval.max_val)
  in
  let m = M.create ~domains:2 () in
  let sched = S.create session in
  let update leaf () =
    Boxed.Farray.update_metered fa ~metrics:m ~domain:leaf ~leaf
      (Memsim.Simval.Int (leaf + 1))
  in
  let p0 = S.spawn sched (update 0) and p1 = S.spawn sched (update 1) in
  let steps pid k =
    for _ = 1 to k do ignore (S.step sched pid : Memsim.Event.t) done
  in
  let run_out pid = while S.enabled sched pid <> None do steps pid 1 done in
  steps p0 4;  (* leaf write; the root's and both children's reads *)
  steps p1 5;  (* leaf write and a whole refresh, which installs *)
  run_out p0;  (* the CAS fails, the second refresh installs *)
  run_out p1;
  ignore (S.finish sched : Memsim.Trace.t);
  Alcotest.check totals "two walks, one failed CAS"
    { nothing with refresh_rounds = 4; cas_attempts = 4; cas_failures = 1 }
    (M.totals m)

(* {1 The zero-allocation guard}

   With the [disabled] handle every record site must be one
   immediate-bool branch: no allocation at all.  The enabled path is a
   padded-cell load + store, also allocation-free.  This is the
   deterministic core of the "instrumentation-overhead" acceptance
   criterion; dune runs tests without flambda, exactly like the bench
   builds, so what passes here holds for bin/bench.exe too. *)

let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_disabled_record_allocates_nothing () =
  let record_many m () =
    for i = 0 to 9_999 do
      M.incr m ~domain:(i land 3) M.Cas_attempt;
      M.add m ~domain:(i land 3) M.Refresh_round 2
    done
  in
  record_many M.disabled ();  (* warm up *)
  Alcotest.(check (float 0.)) "disabled: zero minor words" 0.
    (minor_words_during (record_many M.disabled));
  let m = M.create ~domains:4 () in
  record_many m ();
  Alcotest.(check (float 0.)) "enabled: zero minor words" 0.
    (minor_words_during (record_many m))

let test_disabled_metered_instance_allocates_nothing () =
  (* the full instrumented call path of the benchmark's metered pass,
     with recording disabled: still allocation-free *)
  let inst, _ =
    Option.get
      (Harness.Instances.counter_backend ~metrics:M.disabled
         Harness.Instances.Unboxed ~n:4 ~domains:4
         (Harness.Instances.Impl Harness.Instances.Farray_counter))
  in
  let run () =
    for _ = 1 to 10_000 do
      inst.Counters.Counter.increment ~pid:0;
      ignore (inst.Counters.Counter.read () : int)
    done
  in
  run ();  (* warm up *)
  Alcotest.(check (float 0.)) "metered farray, disabled: zero minor words" 0.
    (minor_words_during run);
  let reg, _ =
    Option.get
      (Harness.Instances.maxreg_backend ~metrics:M.disabled
         Harness.Instances.Unboxed ~n:4 ~domains:4
         (Harness.Instances.Impl Harness.Instances.Algorithm_a))
  in
  let run () =
    for i = 1 to 10_000 do
      reg.Maxreg.Max_register.write_max ~pid:0 i;
      ignore (reg.Maxreg.Max_register.read_max () : int)
    done
  in
  run ();
  Alcotest.(check (float 0.)) "metered algorithm-a, disabled: zero minor words"
    0.
    (minor_words_during run)

let test_histogram_record_allocates_nothing () =
  let h = H.create () in
  let run () =
    for i = 0 to 9_999 do
      H.record h (i * 7)
    done
  in
  run ();
  Alcotest.(check (float 0.)) "record: zero minor words" 0.
    (minor_words_during run)

(* {1 Metrics under domain parallelism} *)

let test_metrics_parallel_single_writer () =
  (* each domain records into its own shard; totals see every increment *)
  let domains = 4 in
  let per_domain = 50_000 in
  let m = M.create ~domains () in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              M.incr m ~domain:d M.Op_update
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no lost updates" (domains * per_domain)
    (M.totals m).M.op_updates

(* {1 JSON round-tripping} *)

let test_json_parse_basic () =
  let doc = J.parse {| {"a": [1, -2.5, true, null, "x\n\"y"], "b": {"c": 3}} |} in
  let a = Option.get (J.member "a" doc) in
  (match Option.get (J.as_list a) with
   | [ one; mhalf; t; n; s ] ->
     Alcotest.(check (option int)) "int" (Some 1) (J.as_int one);
     Alcotest.(check (option (float 0.))) "float" (Some (-2.5)) (J.as_float mhalf);
     Alcotest.(check bool) "bool" true (t = J.Bool true);
     Alcotest.(check bool) "null" true (n = J.Null);
     Alcotest.(check (option string)) "escapes" (Some "x\n\"y") (J.as_string s)
   | _ -> Alcotest.fail "wrong list shape");
  Alcotest.(check (option int)) "nested member" (Some 3)
    (Option.bind (J.member "b" doc) (J.member "c") |> Fun.flip Option.bind J.as_int)

let test_json_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.check_raises ("rejects " ^ s) (J.Parse_error "")
        (fun () ->
          try ignore (J.parse s : J.t)
          with J.Parse_error _ -> raise (J.Parse_error "")))
    [ ""; "{"; "[1,]"; "nul"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let qcheck_float_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"floats survive print -> parse"
    QCheck.float
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match J.parse (J.to_string (J.Float f)) with
      | J.Float g -> Float.equal g f
      | J.Int i -> Float.equal (float_of_int i) f  (* "2" parses as Int 2 *)
      | _ -> false)

let test_float_repr_shortest () =
  (* representative values where %.6g (the old printer) loses precision *)
  List.iter
    (fun f ->
      Alcotest.(check (float 0.)) (J.float_repr f) f
        (float_of_string (J.float_repr f)))
    [ 0.1; 1. /. 3.; 1e-300; 4.9406564584124654e-324; 1.7976931348623157e308;
      123456.789012345; Float.pi ]

let qcheck_value_roundtrip =
  let gen_value =
    QCheck.Gen.(
      sized (fun n ->
          fix
            (fun self n ->
              if n = 0 then
                oneof
                  [ return J.Null;
                    map (fun b -> J.Bool b) bool;
                    map (fun i -> J.Int i) int;
                    map (fun s -> J.Str s) string_printable ]
              else
                frequency
                  [ (2, map (fun l -> J.List l) (list_size (0 -- 4) (self (n / 2))));
                    ( 2,
                      map
                        (fun ps -> J.Obj ps)
                        (list_size (0 -- 4)
                           (pair string_printable (self (n / 2)))) );
                    (1, self 0) ])
            (min n 4)))
  in
  QCheck.Test.make ~count:500 ~name:"JSON values survive print -> parse"
    (QCheck.make gen_value)
    (fun v ->
      (* object member order and duplicate keys are preserved by both the
         printer and the parser, so structural equality is exact *)
      J.parse (J.to_string v) = v)

(* {1 Chrome trace export} *)

let make_trace () =
  let open Memsim in
  let session = Session.create () in
  let c =
    Harness.Annotate.counter session
      (Harness.Instances.counter_sim session ~n:3 ~bound:64
         Harness.Instances.Farray_counter)
  in
  let sched = Scheduler.create session in
  for pid = 0 to 2 do
    ignore
      (Scheduler.spawn sched (fun () ->
           if pid < 2 then c.increment ~pid else ignore (c.read ())))
  done;
  Faults.run_random ~seed:42 ~max_events:10_000 sched (Faults.gate []);
  Scheduler.finish sched

let test_trace_export_valid_json () =
  let trace = make_trace () in
  let doc = J.parse (Obs.Trace_export.to_string ~name:"unit-test" trace) in
  let events =
    Option.get (Option.bind (J.member "traceEvents" doc) J.as_list)
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  let phase e =
    Option.get (Option.bind (J.member "ph" e) J.as_string)
  in
  let ts e = Option.bind (J.member "ts" e) J.as_int in
  (* timestamps monotone over the non-metadata stream *)
  let stamped = List.filter (fun e -> phase e <> "M") events in
  let tss = List.map (fun e -> Option.get (ts e)) stamped in
  let rec monotone = function
    | a :: (b :: _ as tl) -> a <= b && monotone tl
    | _ -> true
  in
  Alcotest.(check bool) "timestamps monotone" true (monotone tss);
  (* every operation Begin has a matching End *)
  let count p = List.length (List.filter (fun e -> phase e = p) events) in
  Alcotest.(check int) "balanced B/E" (count "B") (count "E");
  (* one thread-name record per simulated process *)
  Alcotest.(check int) "thread names" 3 (count "M");
  (* mem events are complete slices with args *)
  List.iter
    (fun e ->
      if phase e = "X" then begin
        Alcotest.(check bool) "X has dur" true (J.member "dur" e <> None);
        Alcotest.(check bool) "X has args" true (J.member "args" e <> None)
      end)
    events

let test_trace_export_file () =
  let trace = make_trace () in
  let path = Filename.temp_file "obs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace_export.to_file path trace;
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "file parses" true
        (match J.parse s with J.Obj _ -> true | _ -> false))

(* {1 The even-length median regression (bench satellite)} *)

let test_median () =
  let median = Benchkit.Bench_native.median in
  Alcotest.(check (float 1e-9)) "odd" 2. (median [ 3.; 1.; 2. ]);
  (* even length: average of the two middle elements, not the upper one *)
  Alcotest.(check (float 1e-9)) "even" 2.5 (median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 1e-9)) "two" 1.5 (median [ 2.; 1. ]);
  (* NaN samples are dropped before sorting, not allowed to poison it *)
  Alcotest.(check (float 1e-9)) "nan dropped" 1.5 (median [ nan; 2.; 1.; nan ]);
  Alcotest.(check bool) "all-nan -> nan" true (Float.is_nan (median [ nan ]));
  Alcotest.(check bool) "empty -> nan" true (Float.is_nan (median []))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [ ( "histogram buckets",
        [ Alcotest.test_case "exact below 32" `Quick test_bucket_bounds_small;
          q qcheck_bucket_contains;
          q qcheck_bucket_error;
          q qcheck_bucket_roundtrip ] );
      ( "histogram",
        [ Alcotest.test_case "exact stats" `Quick test_hist_exact_stats;
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "single sample, wide bucket" `Quick
            test_hist_single_sample;
          Alcotest.test_case "out-of-range/nan p clamps" `Quick
            test_hist_weird_p_clamps;
          Alcotest.test_case "negative clamps" `Quick test_hist_negative_clamps;
          q qcheck_percentile_monotone;
          q qcheck_percentile_in_range;
          q qcheck_percentile_in_range_large;
          q qcheck_merge_commutes;
          q qcheck_merge_is_concat ] );
      ( "metrics",
        [ Alcotest.test_case "totals" `Quick test_metrics_totals;
          Alcotest.test_case "domain folding" `Quick test_metrics_domain_folding;
          Alcotest.test_case "disabled is inert" `Quick test_metrics_disabled;
          Alcotest.test_case "all counters round-trip" `Quick
            test_metrics_totals_roundtrip;
          Alcotest.test_case "parallel single-writer" `Quick
            test_metrics_parallel_single_writer;
          Alcotest.test_case "metered updates record exact totals" `Quick
            test_metered_totals;
          Alcotest.test_case "a failed refresh CAS is counted" `Quick
            test_metered_failed_cas ] );
      ( "zero-allocation guard",
        [ Alcotest.test_case "record sites" `Quick
            test_disabled_record_allocates_nothing;
          Alcotest.test_case "metered instances" `Quick
            test_disabled_metered_instance_allocates_nothing;
          Alcotest.test_case "histogram record" `Quick
            test_histogram_record_allocates_nothing ] );
      ( "json",
        [ Alcotest.test_case "parse basics" `Quick test_json_parse_basic;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "shortest float repr" `Quick
            test_float_repr_shortest;
          q qcheck_float_roundtrip;
          q qcheck_value_roundtrip ] );
      ( "trace export",
        [ Alcotest.test_case "valid, monotone, balanced" `Quick
            test_trace_export_valid_json;
          Alcotest.test_case "to_file" `Quick test_trace_export_file ] );
      ( "bench median",
        [ Alcotest.test_case "even/odd/nan" `Quick test_median ] ) ]
