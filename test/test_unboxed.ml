(* Tests of the unboxed native backend and the unboxed compile of
   lib/structures: the padded heap-block layout, [Raw.cas_same] in both
   compiles, differential equivalence
   against the boxed compile of the same source on random operation
   sequences (over Atomic_memory, whose physical CAS catches a source that
   CASes with a re-encoded value), zero-allocation assertions via
   minor-heap deltas, and a multi-domain smoke test. *)

(* {1 Padded layout}

   The Obj-built padded cell must be indistinguishable from [Atomic.make]
   to the Atomic primitives, just wider. *)

let test_padded_layout () =
  let plain = Smem.Unboxed_memory.make 42 in
  let padded = Smem.Unboxed_memory.Padded.make 42 in
  Alcotest.(check int) "plain block is one field" 1 (Obj.size (Obj.repr plain));
  Alcotest.(check int)
    "padded block spans a full cache line"
    Smem.Unboxed_memory.padded_words
    (Obj.size (Obj.repr padded));
  Alcotest.(check int)
    "padded readback" 42
    (Smem.Unboxed_memory.Padded.read padded);
  Alcotest.(check bool)
    "padded cas succeeds on current value" true
    (Smem.Unboxed_memory.Padded.cas padded ~expected:42 ~desired:7);
  Alcotest.(check bool)
    "padded cas fails on stale value" false
    (Smem.Unboxed_memory.Padded.cas padded ~expected:42 ~desired:9);
  Alcotest.(check int)
    "padded value after cas" 7
    (Smem.Unboxed_memory.Padded.read padded);
  Smem.Unboxed_memory.Padded.write padded Smem.Unboxed_memory.bot;
  Alcotest.(check int)
    "sentinel round-trips" Smem.Unboxed_memory.bot
    (Smem.Unboxed_memory.Padded.read padded);
  (* the padding must survive a compaction-free GC cycle *)
  Gc.full_major ();
  Alcotest.(check int)
    "padded block intact after full major" Smem.Unboxed_memory.padded_words
    (Obj.size (Obj.repr padded))

(* {1 cas_same is CAS(v, v)}

   [Raw.cas_same c v] must answer as [Raw.cas c v v] and leave the cell as
   it found it: the unboxed compile answers with a load, the boxed one
   issues the CAS itself, one CAS step of the cell's memory.  A stale
   [v] must fail; the double refresh relies on that failure. *)

(* (name, value held, value asked) *)
let cas_same_cases =
  [ ("holds v", 5, 5);
    ("holds another value", 7, 5);
    ("holds bot", min_int, 5);
    ("bot asked bot", min_int, min_int) ]

let test_cas_same () =
  let module R = Unboxed.Raw in
  List.iter
    (fun (what, held, asked) ->
      let c = R.make (R.of_int held) in
      let same = R.cas_same c (R.of_int asked) in
      Alcotest.(check bool) (what ^ ": unboxed outcome") (held = asked) same;
      Alcotest.(check int) (what ^ ": unboxed cell unchanged") held
        (R.to_int (R.get c));
      Alcotest.(check bool) (what ^ ": unboxed = cas v v") same
        (R.cas c (R.of_int asked) (R.of_int asked));
      Alcotest.(check int) (what ^ ": unboxed cell after cas") held
        (R.to_int (R.get c)))
    cas_same_cases;
  let c = R.make (R.of_int 5) in
  let stale = R.get c in
  R.set c (R.of_int 9);
  Alcotest.(check bool) "unboxed stale value fails" false (R.cas_same c stale);
  Alcotest.(check int) "unboxed cell keeps the newer value" 9 (R.get c);
  let module B = Boxed.Raw in
  let mem, counts =
    Smem.Counting_memory.wrap (Smem.Sim_memory.bind (Memsim.Session.create ()))
  in
  B.with_memory mem (fun () ->
      let steps what (r, w, c) =
        Alcotest.(check (list int)) (what ^ ": reads, writes, cas") [ r; w; c ]
          Smem.Counting_memory.[ counts.reads; counts.writes; counts.cas ]
      in
      List.iter
        (fun (what, held, asked) ->
          let c = B.make (B.of_int held) in
          (* the value the cell holds, as a read returns it *)
          let asked = if held = asked then B.get c else B.of_int asked in
          Smem.Counting_memory.reset counts;
          let same = B.cas_same c asked in
          steps (what ^ ": boxed cas_same") (0, 0, 1);
          Alcotest.(check bool) (what ^ ": boxed outcome")
            (held = B.to_int asked) same;
          Alcotest.(check bool) (what ^ ": boxed = cas v v") same
            (B.cas c asked asked);
          Alcotest.(check int) (what ^ ": boxed cell unchanged") held
            (B.to_int (B.get c)))
        cas_same_cases;
      let c = B.make (B.of_int 5) in
      let stale = B.get c in
      B.set c (B.of_int 9);
      Smem.Counting_memory.reset counts;
      Alcotest.(check bool) "boxed stale value fails" false (B.cas_same c stale);
      steps "boxed stale cas_same" (0, 0, 1);
      Alcotest.(check int) "boxed cell keeps the newer value" 9
        (B.to_int (B.get c)))

(* {1 Differential: boxed vs unboxed on random operation sequences}

   The two compiles of one source must be observationally identical on
   random sequences of operations.  The boxed side runs over
   Atomic_memory, whose CAS is physical: a source that CASed with a value
   re-encoded from an int, not the one its read returned, would never
   install a value here. *)

let bound = 1 lsl 20

let maxreg_pair impl ~n =
  ( Harness.Instances.maxreg_native ~n ~bound impl,
    fst
      (Option.get
         (Harness.Instances.maxreg_backend Harness.Instances.Unboxed ~n
            ~domains:n (Harness.Instances.Impl impl))) )

let counter_pair impl ~n =
  ( Harness.Instances.counter_native ~n ~bound impl,
    fst
      (Option.get
         (Harness.Instances.counter_backend Harness.Instances.Unboxed ~n
            ~domains:n (Harness.Instances.Impl impl))) )

(* op = (pid, value): value >= 0 is a write, -1 a read *)
let ops_gen ~n =
  QCheck.make
    ~print:
      QCheck.Print.(list (pair int int))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 120)
       (QCheck.Gen.pair (QCheck.Gen.int_range 0 (n - 1))
          (QCheck.Gen.int_range (-1) 40)))

(* The AAC constructions are not in the registry's unboxed backend,
   which has no value bound to give them: pair the two compiles here,
   at a small bound (a tree the size of the bound is built per QCheck
   case) above every value (<= 40) and count (<= 120) [ops_gen] reaches. *)
let small_bound = 256

let aac_maxreg_pair ~n =
  ( Harness.Instances.maxreg_native ~n ~bound:small_bound
      Harness.Instances.Aac_maxreg,
    Maxreg.Max_register.instantiate
      (module Unboxed.Aac_maxreg)
      (Unboxed.Aac_maxreg.create ~bound:small_bound ()) )

let aac_counter_pair ~n =
  ( Harness.Instances.counter_native ~n ~bound:small_bound
      Harness.Instances.Aac_counter,
    Counters.Counter.instantiate
      (module Unboxed.Aac_counter)
      (Unboxed.Aac_counter.create ~n ~bound:small_bound ()) )

let differential_maxreg name
    (pair : n:int -> Maxreg.Max_register.instance * Maxreg.Max_register.instance)
    =
  QCheck.Test.make ~count:200 ~name:(name ^ ": boxed = unboxed")
    (ops_gen ~n:3)
    (fun ops ->
      let boxed, unboxed = pair ~n:3 in
      List.for_all
        (fun (pid, v) ->
          if v < 0 then boxed.read_max () = unboxed.read_max ()
          else begin
            boxed.write_max ~pid v;
            unboxed.write_max ~pid v;
            boxed.read_max () = unboxed.read_max ()
          end)
        ops)

let differential_counter name
    (pair : n:int -> Counters.Counter.instance * Counters.Counter.instance) =
  QCheck.Test.make ~count:200 ~name:(name ^ ": boxed = unboxed")
    (ops_gen ~n:3)
    (fun ops ->
      let boxed, unboxed = pair ~n:3 in
      List.for_all
        (fun (pid, v) ->
          if v < 0 then boxed.read () = unboxed.read ()
          else begin
            boxed.increment ~pid;
            unboxed.increment ~pid;
            boxed.read () = unboxed.read ()
          end)
        ops)

(* {1 Cross-implementation differential}

   Different algorithms for the same abstract object must agree
   observationally on every sequential operation sequence: the f-array
   snapshot against the double-collect baseline, and the AAC
   counter against the naive one.  This is independent of the
   boxed-vs-unboxed pairs above — here the *algorithms* differ and the
   shared sequential semantics is what's under test. *)

let differential_snapshot_impls =
  QCheck.Test.make ~count:200 ~name:"farray snapshot = double-collect"
    (ops_gen ~n:3)
    (fun ops ->
      let farray =
        Harness.Instances.snapshot_native ~n:3 Harness.Instances.Farray_snapshot
      in
      let baseline =
        Harness.Instances.snapshot_native ~n:3 Harness.Instances.Double_collect
      in
      List.for_all
        (fun (pid, v) ->
          if v < 0 then farray.scan () = baseline.scan ()
          else begin
            farray.update ~pid v;
            baseline.update ~pid v;
            farray.scan () = baseline.scan ()
          end)
        ops)

let differential_counter_impls =
  QCheck.Test.make ~count:200 ~name:"aac counter = naive counter"
    (ops_gen ~n:3)
    (fun ops ->
      let aac =
        Harness.Instances.counter_native ~n:3 ~bound:small_bound
          Harness.Instances.Aac_counter
      in
      let naive =
        Harness.Instances.counter_native ~n:3 ~bound:small_bound
          Harness.Instances.Naive_counter
      in
      List.for_all
        (fun (pid, v) ->
          if v < 0 then aac.read () = naive.read ()
          else begin
            aac.increment ~pid;
            naive.increment ~pid;
            aac.read () = naive.read ()
          end)
        ops)

(* {1 Zero allocation}

   [Gc.minor_words] deltas over many operations: the unboxed hot paths
   must not allocate per operation.  The slack absorbs the measurement's
   own float boxing; anything per-op would show up as >= 2 words * ops. *)

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

let test_alloc_free_maxregs () =
  let module C = Unboxed.Cas_maxreg in
  let reg = C.create () in
  let v0 = ref 0 in
  check_alloc_free "cas-loop write_max" (fun () ->
      let base = !v0 in
      for i = 1 to ops do
        C.write_max reg ~pid:0 (base + i)
      done;
      v0 := base + ops);
  check_alloc_free "cas-loop read_max" (fun () ->
      for _ = 1 to ops do
        ignore (C.read_max reg : int)
      done);
  let module A = Unboxed.Algorithm_a in
  let areg = A.create ~n:4 () in
  let a0 = ref 0 in
  check_alloc_free "algorithm-a write_max" (fun () ->
      let base = !a0 in
      for i = 1 to ops do
        A.write_max areg ~pid:0 (base + i)
      done;
      a0 := base + ops);
  check_alloc_free "algorithm-a read_max" (fun () ->
      for _ = 1 to ops do
        ignore (A.read_max areg : int)
      done);
  (* B1: steady-state only — materialize the spine first, then re-run the
     same values (lazy node construction is allowed to allocate) *)
  let module B = Unboxed.B1_maxreg in
  let breg = B.create () in
  for v = 0 to 200 do
    B.write_max breg ~pid:0 v
  done;
  check_alloc_free "aac-unbounded-b1 steady-state" (fun () ->
      for _ = 1 to ops / 10 do
        for v = 190 to 200 do
          B.write_max breg ~pid:0 v
        done;
        ignore (B.read_max breg : int)
      done);
  (* AAC: a bound above the 2 * ops values the warm-up and the measured
     pass write *)
  let module R = Unboxed.Aac_maxreg in
  let rreg = R.create ~bound:((2 * ops) + 1) () in
  let r0 = ref 0 in
  check_alloc_free "aac write_max" (fun () ->
      let base = !r0 in
      for i = 1 to ops do
        R.write_max rreg ~pid:0 (base + i)
      done;
      r0 := base + ops);
  check_alloc_free "aac read_max" (fun () ->
      for _ = 1 to ops do
        ignore (R.read_max rreg : int)
      done)

let test_alloc_free_counters () =
  let module F = Unboxed.Farray_counter in
  let c = F.create ~n:4 () in
  check_alloc_free "farray increment" (fun () ->
      for _ = 1 to ops do
        F.increment c ~pid:0
      done);
  check_alloc_free "farray read" (fun () ->
      for _ = 1 to ops do
        ignore (F.read c : int)
      done);
  let module N = Unboxed.Naive_counter in
  let nc = N.create ~n:4 () in
  check_alloc_free "naive increment" (fun () ->
      for _ = 1 to ops do
        N.increment nc ~pid:0
      done);
  check_alloc_free "naive read" (fun () ->
      for _ = 1 to ops do
        ignore (N.read nc : int)
      done);
  let module A = Unboxed.Aac_counter in
  let ac = A.create ~n:4 ~bound:(2 * ops) () in
  check_alloc_free "aac increment" (fun () ->
      for _ = 1 to ops do
        A.increment ac ~pid:0
      done);
  check_alloc_free "aac read" (fun () ->
      for _ = 1 to ops do
        ignore (A.read ac : int)
      done)

(* {1 Multi-domain smoke}

   Real parallelism over the unboxed structures: totals exact, maxima
   monotone.  [domains_used] caps at 4 — on smaller hosts domains
   time-share, which still exercises cross-domain visibility. *)

let domains_used = 4

let in_domains k f =
  let ds = List.init k (fun i -> Domain.spawn (fun () -> f i)) in
  List.iter Domain.join ds

let test_parallel_counter_exact () =
  let per_domain = 5_000 in
  let module F = Unboxed.Farray_counter in
  let c = F.create ~n:domains_used () in
  in_domains domains_used (fun i ->
      for _ = 1 to per_domain do
        F.increment c ~pid:i
      done);
  Alcotest.(check int) "farray total exact" (domains_used * per_domain)
    (F.read c);
  let module N = Unboxed.Naive_counter in
  let nc = N.create ~n:domains_used () in
  in_domains domains_used (fun i ->
      for _ = 1 to per_domain do
        N.increment nc ~pid:i
      done);
  Alcotest.(check int) "naive total exact" (domains_used * per_domain)
    (N.read nc)

let test_parallel_maxreg_monotone () =
  let per_domain = 3_000 in
  let module A = Unboxed.Algorithm_a in
  let reg = A.create ~n:domains_used () in
  let monotone = Atomic.make true in
  in_domains domains_used (fun i ->
      if i = 0 then begin
        let last = ref 0 in
        for _ = 1 to per_domain * 3 do
          let v = A.read_max reg in
          if v < !last then Atomic.set monotone false;
          last := v
        done
      end
      else
        for v = 1 to per_domain do
          A.write_max reg ~pid:i ((v * domains_used) + i)
        done);
  Alcotest.(check bool) "algorithm-a reads monotone" true
    (Atomic.get monotone);
  Alcotest.(check int) "algorithm-a final maximum"
    ((per_domain * domains_used) + (domains_used - 1))
    (A.read_max reg)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "unboxed"
    [ ("layout", [ Alcotest.test_case "padded blocks" `Quick test_padded_layout ]);
      ("raw", [ Alcotest.test_case "cas_same is CAS(v, v)" `Quick test_cas_same ]);
      ( "differential",
        qsuite
          (List.map
             (fun impl ->
               differential_maxreg
                 (Harness.Instances.maxreg_name impl)
                 (maxreg_pair impl))
             Harness.Instances.
               [ Algorithm_a; Algorithm_a_literal; B1_maxreg; Cas_maxreg ]
          @ List.map
              (fun impl ->
                differential_counter
                  (Harness.Instances.counter_name impl)
                  (counter_pair impl))
              Harness.Instances.[ Farray_counter; Naive_counter ]
          @ [ differential_maxreg "aac max register" aac_maxreg_pair;
              differential_counter "aac counter" aac_counter_pair ]) );
      ( "cross-implementation",
        qsuite [ differential_snapshot_impls; differential_counter_impls ] );
      ( "allocation",
        [ Alcotest.test_case "max registers allocate nothing" `Quick
            test_alloc_free_maxregs;
          Alcotest.test_case "counters allocate nothing" `Quick
            test_alloc_free_counters ] );
      ( "parallel",
        [ Alcotest.test_case "counters exact under 4 domains" `Quick
            test_parallel_counter_exact;
          Alcotest.test_case "max register monotone under 4 domains" `Quick
            test_parallel_maxreg_monotone ] ) ]
