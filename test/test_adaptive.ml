(* Tests of the dispatch layer (Harness.Adaptive and the combining and
   adaptive backends the registry builds on it): the pure Policy kernel
   (threshold verdicts, hysteresis fold, parameter validation),
   differential equivalence of both dispatch backends against the plain
   unboxed natives on random sequences (the adaptive one under a policy
   that forces mode flips), registry coverage, multi-domain exactness,
   report sanity, the per-op epoch dispatch (stale trigger, metering
   that never steers, flips both ways), input validation on both update
   paths, and zero-allocation guards on the solo, plain-mode,
   arena-bypass, solo-drain and elimination update paths.  The
   Smem.Combine arena's own unit tests live in test_combining.ml;
   linearizability of dispatch-backend histories under chaos in
   test_chaos.ml. *)

module P = Harness.Adaptive.Policy
module I = Harness.Instances
module AD = Harness.Adaptive.Alg_a
module CD = Harness.Adaptive.Cas
module AU = Unboxed.Algorithm_a

(* {1 The pure policy kernel} *)

let base_params =
  { P.epoch_ops = 1024;
    hysteresis = 2;
    min_updates = 100;
    stale_min = 0.3;
    benefit_min = 0.5 }

let test_validate () =
  let check msg p =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () -> P.validate p)
  in
  check "Adaptive: epoch_ops must be a positive power of two"
    { base_params with P.epoch_ops = 0 };
  check "Adaptive: epoch_ops must be a positive power of two"
    { base_params with P.epoch_ops = 3 };
  check "Adaptive: hysteresis must be >= 1"
    { base_params with P.hysteresis = 0 };
  check "Adaptive: negative min_updates"
    { base_params with P.min_updates = -1 };
  check "Adaptive: negative stale_min"
    { base_params with P.stale_min = -0.5 };
  check "Adaptive: negative benefit_min"
    { base_params with P.benefit_min = -1. };
  P.validate base_params;
  List.iter P.validate [ P.default_maxreg; P.default_plain; P.thrash ]

let test_want_thresholds () =
  let mode = Alcotest.testable (Fmt.of_to_string P.mode_name) ( = ) in
  let check msg expect ~current s =
    Alcotest.check mode msg expect (P.want base_params ~current s)
  in
  (* too few updates: no evidence, keep whatever mode is active *)
  check "sparse epoch keeps plain" P.Plain ~current:P.Plain
    { P.zero_signals with P.updates = 50; stale = 50 };
  check "sparse epoch keeps combining" P.Combining ~current:P.Combining
    { P.zero_signals with P.updates = 50 };
  check "no trigger stays plain" P.Plain ~current:P.Plain
    { P.zero_signals with P.updates = 1000 };
  (* combining -> plain when the arena stops earning its keep *)
  check "earning arena stays combining" P.Combining ~current:P.Combining
    { P.zero_signals with
      P.updates = 1000;
      eliminations = 400;
      combined_ops = 200 };
  check "idle arena leaves combining" P.Plain ~current:P.Combining
    { P.zero_signals with P.updates = 1000; eliminations = 100 }

let test_want_stale_trigger () =
  let mode = Alcotest.testable (Fmt.of_to_string P.mode_name) ( = ) in
  let check msg expect ~current s =
    Alcotest.check mode msg expect (P.want base_params ~current s)
  in
  check "stale writes enter combining" P.Combining ~current:P.Plain
    { P.zero_signals with P.updates = 1000; stale = 400 };
  check "fresh writes stay plain" P.Plain ~current:P.Plain
    { P.zero_signals with P.updates = 1000; stale = 200 };
  Alcotest.check mode "a > 1 bar disables the trigger" P.Plain
    (P.want P.default_plain ~current:P.Plain
       { P.zero_signals with P.updates = 1000; stale = 1000 })

(* Signal fixtures whose verdict is unambiguous under [hys_params]:
   [s_comb] wants combining from either mode (all-stale writes, earning
   arena), [s_plain] wants plain from either mode. *)
let hys_params h =
  { P.epoch_ops = 2;
    hysteresis = h;
    min_updates = 0;
    stale_min = 0.5;
    benefit_min = 0.5 }

let s_comb =
  { P.zero_signals with P.updates = 10; stale = 10; eliminations = 10 }

let s_plain = { P.zero_signals with P.updates = 10 }

(* For each N, the N-th consecutive dissent flips and none before it
   does; an agreeing epoch resets the count. *)
let test_hysteresis_flips_after_exactly_n () =
  List.iter
    (fun n ->
      let p = hys_params n in
      let rec dissent h k =
        if k = 0 then h else dissent (P.step p h s_comb) (k - 1)
      in
      let check what ok =
        Alcotest.(check bool) (Printf.sprintf "N = %d: %s" n what) true ok
      in
      let before = dissent (P.initial P.Plain) (n - 1) in
      check "N - 1 dissents: no flip yet"
        (before.P.mode = P.Plain && before.P.streak = n - 1
        && before.P.flips = 0);
      let h = P.step p before s_comb in
      check "the N-th dissent flips"
        (h.P.mode = P.Combining && h.P.streak = 0 && h.P.flips = 1);
      let reset = P.step p before s_plain in
      check "agreeing epoch resets streak"
        (reset.P.mode = P.Plain && reset.P.streak = 0 && reset.P.flips = 0);
      check "streak restarts from zero after the reset"
        ((dissent reset (n - 1)).P.mode = P.Plain
        && (dissent reset n).P.mode = P.Combining))
    [ 1; 2; 3; 4 ]

(* Each flip consumes [h] consecutive dissenting epochs, so however
   adversarial the verdict sequence, flips <= epochs / h. *)
let qcheck_hysteresis_bounds_flips =
  QCheck.Test.make ~count:500 ~name:"flips bounded by epochs / hysteresis"
    QCheck.(pair (int_range 1 4) (list_of_size (QCheck.Gen.return 60) bool))
    (fun (h, verdicts) ->
      let p = hys_params h in
      let final =
        List.fold_left
          (fun st wants_comb ->
            P.step p st (if wants_comb then s_comb else s_plain))
          (P.initial P.Plain) verdicts
      in
      final.P.flips * h <= List.length verdicts)

(* {1 Differential: dispatch backends vs plain unboxed}

   Both dispatch backends claim "same structure, different update
   path"; on sequential random mixes they must be observationally
   identical to the plain unboxed structure.  The adaptive backend runs
   the flip-forcing {!P.thrash}, so the dispatcher flips at every epoch
   boundary and the sequences cross many plain->combining and
   combining->plain boundaries.  The combining backend's arena is sized
   for 3 domains and driven from one thread with rotating pids, so the
   solo-combiner drain path (lock, publish-free apply) is exercised for
   every pid, not just the bypass.  Every instance comes from the
   registry's one constructor per family. *)

let thrash = I.Adaptive (Some P.thrash)

let backend_name = function
  | I.Unboxed -> "unboxed"
  | I.Combining -> "combining"
  | I.Adaptive _ -> "adaptive"

let maxreg ?metrics ?(n = 3) ?(domains = 3) backend spec =
  Option.get (I.maxreg_backend ?metrics backend ~n ~domains spec)

let counter ?metrics ?(n = 3) ?(domains = 3) backend spec =
  Option.get (I.counter_backend ?metrics backend ~n ~domains spec)

(* op = (pid, value): value >= 0 is an update, -1 a read *)
let ops_gen ~n =
  QCheck.make
    ~print:QCheck.Print.(list (pair int int))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 120)
       (QCheck.Gen.pair (QCheck.Gen.int_range 0 (n - 1))
          (QCheck.Gen.int_range (-1) 40)))

(* Replay [ops] on [inst] and on the plain unboxed instance of the same
   spec; every read must agree. *)
let agrees_maxreg (plain : Maxreg.Max_register.instance)
    (inst : Maxreg.Max_register.instance) ops =
  List.for_all
    (fun (pid, v) ->
      if v >= 0 then begin
        plain.write_max ~pid v;
        inst.write_max ~pid v
      end;
      plain.read_max () = inst.read_max ())
    ops

let agrees_counter (plain : Counters.Counter.instance)
    (inst : Counters.Counter.instance) ops =
  List.for_all
    (fun (pid, v) ->
      if v >= 0 then begin
        plain.increment ~pid;
        inst.increment ~pid
      end;
      plain.read () = inst.read ())
    ops

let differential_maxreg backend impl =
  QCheck.Test.make ~count:200
    ~name:
      (Printf.sprintf "%s: %s = plain" (I.maxreg_name impl)
         (backend_name backend))
    (ops_gen ~n:3)
    (fun ops ->
      agrees_maxreg
        (fst (maxreg I.Unboxed (I.Impl impl)))
        (fst (maxreg backend (I.Impl impl)))
        ops)

let differential_counter backend impl =
  QCheck.Test.make ~count:200
    ~name:
      (Printf.sprintf "%s: %s = plain" (I.counter_name impl)
         (backend_name backend))
    (ops_gen ~n:3)
    (fun ops ->
      agrees_counter
        (fst (counter I.Unboxed (I.Impl impl)))
        (fst (counter backend (I.Impl impl)))
        ops)

let differentials backend =
  [ differential_maxreg backend I.Algorithm_a;
    differential_maxreg backend I.Cas_maxreg;
    differential_counter backend I.Farray_counter;
    differential_counter backend I.Naive_counter ]

(* The differential property holds trivially if the dispatcher never
   leaves plain mode; pin that the thrashing policy flips at every
   epoch boundary on a deterministic all-update sequence. *)
let test_thrash_actually_flips () =
  let ad = AD.create ~policy:P.thrash ~n:2 ~domains:2 () in
  for i = 1 to 64 do
    AD.write_max ad ~pid:(i land 1) i
  done;
  let r = AD.report ad in
  Alcotest.(check bool) "epochs evaluated" true (r.Harness.Adaptive.epochs > 0);
  Alcotest.(check int) "every epoch flips" r.Harness.Adaptive.epochs
    r.Harness.Adaptive.epoch_flips;
  Alcotest.(check bool) "some ops ran in combining mode" true
    (r.Harness.Adaptive.combining_ops_pct > 0.)

(* {1 Registry coverage}

   Every (spec, backend) pair the registry's constructors accept — with
   and without a live metrics handle — must replay a random sequence
   exactly like the plain unboxed structure of the same spec; the specs
   with no unboxed specialization (AAC, the snapshot counters) must stay
   [None] on every backend, and those with no dispatch layer on the
   dispatch backends. *)

let dispatch_backends = [ I.Combining; I.Adaptive None; thrash ]

let maxreg_specs =
  List.map (fun i -> I.Impl i) (I.Algorithm_a_literal :: I.all_maxregs)
  @ List.map (fun d -> I.Dial d) Treeprim.Dial.all

let counter_specs =
  List.map
    (fun i -> I.Impl i)
    (I.all_counters
    @ [ I.Snapshot_counter I.Double_collect; I.Snapshot_counter I.Afek ])
  @ List.map (fun d -> I.Dial d) Treeprim.Dial.all

let spec_name name = function
  | I.Impl i -> name i
  | I.Dial d -> "dial " ^ Treeprim.Dial.name d

let registry_ops =
  let st = Random.State.make [| 42 |] in
  List.init 300 (fun _ -> (Random.State.int st 3, Random.State.int st 42 - 1))

let test_registry_differential () =
  let accepted = ref 0 in
  let check name backend metered ok =
    incr accepted;
    if not ok then
      Alcotest.failf "%s on %s (metered %b) diverged from plain unboxed" name
        (backend_name backend) metered
  in
  List.iter
    (fun backend ->
      List.iter
        (fun metered ->
          let metrics () =
            if metered then Some (Obs.Metrics.create ~domains:3 ()) else None
          in
          List.iter
            (fun spec ->
              match
                I.maxreg_backend ?metrics:(metrics ()) backend ~n:3 ~domains:3
                  spec
              with
              | None -> ()
              | Some (inst, _) ->
                check (spec_name I.maxreg_name spec) backend metered
                  (agrees_maxreg (fst (maxreg I.Unboxed spec)) inst
                     registry_ops))
            maxreg_specs;
          List.iter
            (fun spec ->
              match
                I.counter_backend ?metrics:(metrics ()) backend ~n:3
                  ~domains:3 spec
              with
              | None -> ()
              | Some (inst, _) ->
                check (spec_name I.counter_name spec) backend metered
                  (agrees_counter (fst (counter I.Unboxed spec)) inst
                     registry_ops))
            counter_specs)
        [ false; true ])
    (I.Unboxed :: dispatch_backends);
  (* unboxed: every maxreg spec but AAC (8) and every counter spec with
     an int specialization (6); each dispatch backend: the four
     structures with a combining layer (2 + 2); all twice *)
  Alcotest.(check int) "accepted (spec, backend) pairs"
    (2 * (8 + 6 + (3 * 4)))
    !accepted

let test_registry_no_dispatch_layer () =
  let none what opt =
    Alcotest.(check bool) (what ^ " has no instance") true (Option.is_none opt)
  in
  none "aac max register, unboxed"
    (I.maxreg_backend I.Unboxed ~n:3 ~domains:3 (I.Impl I.Aac_maxreg));
  none "aac counter, unboxed"
    (I.counter_backend I.Unboxed ~n:3 ~domains:3 (I.Impl I.Aac_counter));
  List.iter
    (fun s ->
      none
        (I.counter_name (I.Snapshot_counter s) ^ ", unboxed")
        (I.counter_backend I.Unboxed ~n:3 ~domains:3
           (I.Impl (I.Snapshot_counter s))))
    I.all_snapshots;
  List.iter
    (fun backend ->
      List.iter
        (fun spec ->
          none
            (spec_name I.maxreg_name spec ^ ", " ^ backend_name backend)
            (I.maxreg_backend backend ~n:3 ~domains:3 spec))
        (I.Impl I.Aac_maxreg :: I.Impl I.B1_maxreg
         :: I.Impl I.Algorithm_a_literal
         :: List.map (fun d -> I.Dial d) Treeprim.Dial.all);
      List.iter
        (fun spec ->
          none
            (spec_name I.counter_name spec ^ ", " ^ backend_name backend)
            (I.counter_backend backend ~n:3 ~domains:3 spec))
        (I.Impl I.Aac_counter
         :: List.map
              (fun s -> I.Impl (I.Snapshot_counter s))
              I.all_snapshots
        @ List.map (fun d -> I.Dial d) Treeprim.Dial.all))
    dispatch_backends

(* {1 Reports} *)

let test_report_fresh () =
  let ad = AD.create ~n:2 ~domains:2 () in
  let r = AD.report ad in
  Alcotest.(check bool) "fresh: plain, no epochs, no flips, 0%" true
    (r.Harness.Adaptive.mode = P.Plain
    && r.Harness.Adaptive.epochs = 0
    && r.Harness.Adaptive.epoch_flips = 0
    && r.Harness.Adaptive.combining_ops_pct = 0.)

let test_report_counts_residual () =
  (* default maxreg policy, epoch_ops = 1024: 10 updates never reach an
     epoch boundary, yet the report's ops accounting must see them *)
  let ad = AD.create ~n:2 ~domains:2 () in
  for i = 1 to 10 do
    AD.write_max ad ~pid:0 i
  done;
  let r = AD.report ad in
  Alcotest.(check int) "no epoch yet" 0 r.Harness.Adaptive.epochs;
  Alcotest.(check (float 1e-9)) "all residual ops ran plain" 0.
    r.Harness.Adaptive.combining_ops_pct

let test_create_validates_policy () =
  Alcotest.check_raises "bad policy refused at create"
    (Invalid_argument "Adaptive: epoch_ops must be a positive power of two")
    (fun () ->
      ignore
        (AD.create ~policy:{ base_params with P.epoch_ops = 12 } ~n:2
           ~domains:2 ()
          : AD.t))

let test_tick_rejects_bad_pid () =
  let c, _ = counter thrash ~n:2 ~domains:2 (I.Impl I.Farray_counter) in
  Alcotest.(check bool) "out-of-range pid raises, never corrupts" true
    (match c.increment ~pid:7 with
     | () -> false
     | exception Invalid_argument _ -> true)

(* {1 Per-op dispatch}

   Every caller, the bench's timed loops included, runs the per-op
   [update].  Pin that it (a) drives epochs and the stale-rate trigger,
   (b) decides the same with or without a live metrics handle, and (c)
   stays observationally identical to the plain unboxed structure
   across flips in both directions.  The mode is the one [report]
   shows. *)

let mode_of report = report.Harness.Adaptive.mode

let stale_policy =
  { P.epoch_ops = 64;
    hysteresis = 1;
    min_updates = 1;
    stale_min = 0.25;
    benefit_min = 0. }

let test_stale_writes_flip () =
  let ad = AD.create ~policy:stale_policy ~n:2 ~domains:2 () in
  AD.write_max ad ~pid:0 1000;
  Alcotest.(check bool) "starts plain" true (mode_of (AD.report ad) = P.Plain);
  (* two epochs of stale writes: rate ~1.0 >= 0.25 at the boundary *)
  for v = 1 to 128 do
    AD.write_max ad ~pid:0 v
  done;
  let r = AD.report ad in
  Alcotest.(check bool) "stale writes flipped to combining" true
    (mode_of r = P.Combining);
  Alcotest.(check bool) "report saw the flip" true
    (r.Harness.Adaptive.epoch_flips >= 1)

(* A metrics handle records and never steers: under the default
   policy, an unmetered instance and a metered one whose handle also
   counts 32 [Op_read] per write, fed the same one fresh write and
   8,192 stale ones, report the same — at domains = 2, where the stale
   writes flip both to combining, and at domains = 1, where both take
   the solo path and run no epoch. *)
let test_metering_never_steers () =
  let report =
    Alcotest.testable
      (fun ppf (r : Harness.Adaptive.report) ->
        Fmt.pf ppf "%s, %d epochs, %d flips, %.1f%% combining"
          (P.mode_name r.mode) r.epochs r.epoch_flips r.combining_ops_pct)
      ( = )
  in
  List.iter
    (fun domains ->
      let metrics = Obs.Metrics.create ~domains () in
      let plain = AD.create ~n:2 ~domains () in
      let metered = AD.create_metered ~metrics ~n:2 ~domains () in
      let feed v =
        AD.write_max plain ~pid:0 v;
        for _ = 1 to 32 do
          Obs.Metrics.incr metrics ~domain:0 Obs.Metrics.Op_read;
          ignore (AD.read_max metered : int)
        done;
        AD.write_max metered ~pid:0 v
      in
      feed 1_000_000;
      for v = 1 to 8192 do
        feed v
      done;
      let what = Printf.sprintf "domains = %d" domains in
      Alcotest.check report (what ^ ": equal reports") (AD.report plain)
        (AD.report metered);
      Alcotest.(check bool) (what ^ ": the handle recorded the CASes") true
        ((Obs.Metrics.totals metrics).Obs.Metrics.cas_attempts > 0);
      if domains > 1 then
        Alcotest.(check bool) (what ^ ": the stale writes flipped it") true
          (mode_of (AD.report plain) = P.Combining))
    [ 2; 1 ]

let test_dispatch_differential () =
  (* benefit bar unreachable: stale epochs pull the dispatcher into
     combining, the next epoch throws it back out.  Two fresh epochs
     raise the max, then three writes in four are stale and every
     fourth is fresh, so combining mode both eliminates and submits to
     the arena *)
  let policy = { stale_policy with P.epoch_ops = 16; benefit_min = 10. } in
  let plain = AU.create ~n:2 () in
  let ad = AD.create ~policy ~n:2 ~domains:2 () in
  let next = ref 0 in
  for i = 0 to 511 do
    let v = if i >= 32 && i land 3 <> 0 then 0 else (incr next; !next) in
    AU.write_max plain ~pid:0 v;
    AD.write_max ad ~pid:0 v;
    if AU.read_max plain <> AD.read_max ad then
      Alcotest.failf "diverged at write %d" i
  done;
  let st = Smem.Combine.stats (AD.arena ad) in
  Alcotest.(check bool) "combining mode eliminated and submitted" true
    (st.Smem.Combine.eliminations > 0 && st.Smem.Combine.lock_acquisitions > 0);
  Alcotest.(check bool) "dispatcher flipped both ways" true
    ((AD.report ad).Harness.Adaptive.epoch_flips >= 2)

(* Validation happens once, in the shared kernel, before either update
   path: a negative value raises on the pinned combining path
   ([update_combining]) exactly as on the per-op path, in either
   dispatcher mode, and never counts an elimination (root >= 0 > v
   would otherwise pass the elimination check). *)
let negative_value_both_modes (type a)
    (module A : Harness.Adaptive.S with type t = a) name (t : a) =
  let eliminations () =
    (Smem.Combine.stats (A.arena t)).Smem.Combine.eliminations
  in
  let raises mode path f =
    let what = Printf.sprintf "%s %s (-1), %s mode" name path mode in
    let before = eliminations () in
    Alcotest.(check bool) (what ^ " raises") true
      (match f () with () -> false | exception Invalid_argument _ -> true);
    Alcotest.(check int) (what ^ ": no elimination counted") before
      (eliminations ())
  in
  let in_mode mode =
    raises mode "update_combining" (fun () -> A.update_combining t ~pid:0 (-1));
    raises mode "update" (fun () -> A.update t ~pid:0 (-1))
  in
  let mode () = mode_of (A.report t) in
  A.update t ~pid:0 1000;
  Alcotest.(check bool) (name ^ " starts plain") true (mode () = P.Plain);
  in_mode "plain";
  (* two fully stale epochs flip it *)
  for v = 1 to 128 do
    A.update t ~pid:0 v
  done;
  Alcotest.(check bool) (name ^ " flipped to combining") true
    (mode () = P.Combining);
  in_mode "combining"

let test_negative_value_both_modes () =
  negative_value_both_modes (module AD) "algorithm-a"
    (AD.create ~policy:stale_policy ~n:2 ~domains:2 ());
  negative_value_both_modes (module CD) "cas-loop"
    (CD.create ~policy:stale_policy ~domains:2 ())

(* {1 Multi-domain exactness}

   Real parallelism through both dispatch backends: counter totals must
   be exact and max registers must end at the true maximum with
   monotone reads — through the arena protocol, and across flips under
   a flip-prone adaptive policy. *)

let domains_used = 4
let per_domain = 20_000

let flip_policy = { P.thrash with P.epoch_ops = 64 }

let parallel_counter backend impl =
  let cnt, _ =
    counter ~n:domains_used ~domains:domains_used backend (I.Impl impl)
  in
  let (_ : unit array) =
    Harness.Chaos.Inject.spawn_indexed domains_used (fun pid ->
        for _ = 1 to per_domain do
          cnt.increment ~pid
        done)
  in
  Alcotest.(check int)
    (Printf.sprintf "%s %s total exact" (backend_name backend)
       (I.counter_name impl))
    (domains_used * per_domain) (cnt.read ())

(* domain 0 reads, the others write disjoint increasing streams *)
let parallel_maxreg backend impl =
  let reg, dispatch =
    maxreg ~n:domains_used ~domains:domains_used backend (I.Impl impl)
  in
  let monotone = Atomic.make true in
  let (_ : unit array) =
    Harness.Chaos.Inject.spawn_indexed domains_used (fun pid ->
        if pid = 0 then begin
          let last = ref 0 in
          for _ = 1 to per_domain do
            let v = reg.read_max () in
            if v < !last then Atomic.set monotone false;
            last := v
          done
        end
        else
          for v = 1 to per_domain do
            reg.write_max ~pid ((v * domains_used) + pid)
          done)
  in
  let name = backend_name backend ^ " " ^ I.maxreg_name impl in
  Alcotest.(check bool) (name ^ " reads monotone") true (Atomic.get monotone);
  Alcotest.(check int) (name ^ " final maximum")
    ((per_domain * domains_used) + (domains_used - 1))
    (reg.read_max ());
  Option.get dispatch

let test_parallel_counter_exact () =
  parallel_counter I.Combining I.Farray_counter;
  parallel_counter I.Combining I.Naive_counter

let test_parallel_maxreg_exact () =
  ignore (parallel_maxreg I.Combining I.Algorithm_a : I.dispatch);
  ignore (parallel_maxreg I.Combining I.Cas_maxreg : I.dispatch)

let test_parallel_maxreg_across_flips () =
  let d = parallel_maxreg (I.Adaptive (Some flip_policy)) I.Algorithm_a in
  Alcotest.(check bool) "dispatcher flipped during the run" true
    ((d.report ()).Harness.Adaptive.epoch_flips > 0)

let test_parallel_counter_across_flips () =
  parallel_counter (I.Adaptive (Some flip_policy)) I.Farray_counter;
  parallel_counter (I.Adaptive (Some flip_policy)) I.Naive_counter

(* {1 Zero allocation on the dispatch fast paths}

   The per-op cost of adaptivity is a mode check and a tick; the
   uncontended combining paths are the domains = 1 arena bypass, the
   solo-combiner drain (lock held, no waiters) and algorithm A's
   elimination shortcut.  None may allocate, through the registry's
   instance closures included.  The epoch advance is the
   deliberately-allocating rare path (it folds stats records), so the
   plain-mode guard uses an epoch far beyond the op budget.  Same
   minor-heap-delta idiom as test_unboxed.ml. *)

let minor_delta f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let ops = 10_000
let slack = 256.0

let check_alloc_free name f =
  ignore (minor_delta f : float) (* warm up: force any one-time allocation *);
  let delta = minor_delta f in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d ops allocate <= %.0f words (got %.0f)" name ops
       slack delta)
    true (delta <= slack)

(* Fresh increasing writes (pids alternating over [pids]), then reads. *)
let alloc_free_maxreg name pids (reg : Maxreg.Max_register.instance) =
  let v0 = ref 0 in
  check_alloc_free (name ^ " write_max") (fun () ->
      let base = !v0 in
      for i = 1 to ops do
        reg.write_max ~pid:(i mod pids) (base + i)
      done;
      v0 := base + ops);
  check_alloc_free (name ^ " read_max") (fun () ->
      for _ = 1 to ops do
        ignore (reg.read_max () : int)
      done)

let alloc_free_counter name pids (cnt : Counters.Counter.instance) =
  check_alloc_free (name ^ " increment") (fun () ->
      for i = 1 to ops do
        cnt.increment ~pid:(i mod pids)
      done);
  check_alloc_free (name ^ " read") (fun () ->
      for _ = 1 to ops do
        ignore (cnt.read () : int)
      done)

let test_alloc_free_solo () =
  let solo = I.Adaptive None in
  alloc_free_maxreg "adaptive alg-a (solo)" 1
    (fst (maxreg ~n:1 ~domains:1 solo (I.Impl I.Algorithm_a)));
  alloc_free_counter "adaptive farray (solo)" 1
    (fst (counter ~n:1 ~domains:1 solo (I.Impl I.Farray_counter)))

let test_alloc_free_plain_mode () =
  (* domains = 2: full dispatch (mode check + tick) on the plain path,
     with the epoch boundary pushed beyond the op budget *)
  let no_epoch p = I.Adaptive (Some { p with P.epoch_ops = 1 lsl 20 }) in
  alloc_free_maxreg "adaptive alg-a (plain dispatch)" 2
    (fst
       (maxreg ~n:2 ~domains:2 (no_epoch P.default_maxreg)
          (I.Impl I.Algorithm_a)));
  alloc_free_counter "adaptive farray (plain dispatch)" 2
    (fst
       (counter ~n:2 ~domains:2 (no_epoch P.default_plain)
          (I.Impl I.Farray_counter)))

let test_alloc_free_bypass () =
  alloc_free_maxreg "cas combining (bypass)" 1
    (fst (maxreg ~n:1 ~domains:1 I.Combining (I.Impl I.Cas_maxreg)));
  alloc_free_counter "farray combining (bypass)" 1
    (fst (counter ~n:1 ~domains:1 I.Combining (I.Impl I.Farray_counter)))

let test_alloc_free_solo_combiner () =
  (* domains = 2, driven single-threaded: every submit takes the lock and
     drains alone — the whole arena protocol minus waiting *)
  alloc_free_counter "farray combining (solo drain)" 2
    (fst (counter ~n:2 ~domains:2 I.Combining (I.Impl I.Farray_counter)));
  alloc_free_maxreg "algorithm-a combining (solo drain)" 2
    (fst (maxreg ~n:2 ~domains:2 I.Combining (I.Impl I.Algorithm_a)))

let test_alloc_free_elimination () =
  let reg, d = maxreg ~n:2 ~domains:2 I.Combining (I.Impl I.Algorithm_a) in
  reg.write_max ~pid:0 1_000_000;
  check_alloc_free "algorithm-a combining elimination" (fun () ->
      for i = 1 to ops do
        reg.write_max ~pid:(i land 1) i
      done);
  Alcotest.(check bool) "eliminations actually counted" true
    ((Smem.Combine.stats (Option.get d).arena).Smem.Combine.eliminations
    >= ops)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "adaptive"
    [ ( "policy",
        Alcotest.test_case "params validated" `Quick test_validate
        :: Alcotest.test_case "want thresholds" `Quick test_want_thresholds
        :: Alcotest.test_case "stale-rate trigger" `Quick
             test_want_stale_trigger
        :: Alcotest.test_case "hysteresis flips after exactly N" `Quick
             test_hysteresis_flips_after_exactly_n
        :: qsuite [ qcheck_hysteresis_bounds_flips ] );
      ( "differential",
        qsuite (differentials thrash @ differentials I.Combining)
        @ [ Alcotest.test_case "thrash policy actually flips" `Quick
              test_thrash_actually_flips ] );
      ( "registry",
        [ Alcotest.test_case "accepted pairs match plain unboxed" `Quick
            test_registry_differential;
          Alcotest.test_case "no dispatch layer stays None" `Quick
            test_registry_no_dispatch_layer ] );
      ( "reports",
        [ Alcotest.test_case "fresh report" `Quick test_report_fresh;
          Alcotest.test_case "residual partial epoch counted" `Quick
            test_report_counts_residual;
          Alcotest.test_case "create validates policy" `Quick
            test_create_validates_policy;
          Alcotest.test_case "bad pid raises" `Quick test_tick_rejects_bad_pid ] );
      ( "per-op",
        [ Alcotest.test_case "stale writes flip to combining" `Quick
            test_stale_writes_flip;
          Alcotest.test_case "metering never steers dispatch" `Quick
            test_metering_never_steers;
          Alcotest.test_case "differential across flips both ways" `Quick
            test_dispatch_differential;
          Alcotest.test_case "negative value raises in both modes" `Quick
            test_negative_value_both_modes ] );
      ( "parallel",
        [ Alcotest.test_case "counters exact under 4 domains" `Quick
            test_parallel_counter_exact;
          Alcotest.test_case "max registers exact under 4 domains" `Quick
            test_parallel_maxreg_exact;
          Alcotest.test_case "max register exact across flips" `Quick
            test_parallel_maxreg_across_flips;
          Alcotest.test_case "counters exact across flips" `Quick
            test_parallel_counter_across_flips ] );
      ( "allocation",
        [ Alcotest.test_case "solo path allocates nothing" `Quick
            test_alloc_free_solo;
          Alcotest.test_case "plain dispatch allocates nothing" `Quick
            test_alloc_free_plain_mode;
          Alcotest.test_case "arena bypass allocates nothing" `Quick
            test_alloc_free_bypass;
          Alcotest.test_case "solo combiner allocates nothing" `Quick
            test_alloc_free_solo_combiner;
          Alcotest.test_case "elimination allocates nothing" `Quick
            test_alloc_free_elimination ] ) ]
