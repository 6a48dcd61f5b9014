(* Exhaustive linearizability verification: explore every schedule of
   small configurations — up to commutation of independent events, via
   DPOR — and check each complete execution with the Wing-Gong checker.
   Complements the random sweeps of test_maxreg / test_counters /
   test_snapshots — in these tiny regimes, absence of counterexamples is
   a proof over the whole schedule space.  Class counts are pinned:
   linearizability is invariant under swapping independent events, so the
   Mazurkiewicz classes carry the proof, and a changed count is a changed
   algorithm (or a broken explorer) worth noticing. *)

open Memsim

let check_dpor_classes ~session ~n ~make_body ~check ~classes =
  let explored = ref 0 in
  let failures = ref 0 in
  let stats =
    Dpor.run session ~n ~make_body
      ~on_complete:(fun trace ->
        incr explored;
        if not (check trace) then incr failures;
        true)
      ()
  in
  Alcotest.(check bool) "not truncated" false stats.Dpor.truncated;
  Alcotest.(check int) "pinned trace-class count" classes !explored;
  Alcotest.(check int) "no violations" 0 !failures

let check_fixed_interleavings ~session ~n ~make_body ~check ~expect_min =
  let counts = Explore.solo_counts session ~n ~make_body in
  let explored = ref 0 in
  let failures = ref 0 in
  let stats =
    Explore.run_interleavings session ~make_body ~counts
      ~on_complete:(fun trace ->
        incr explored;
        if not (check trace) then incr failures;
        true)
      ()
  in
  Alcotest.(check bool) "not truncated" false stats.Explore.truncated;
  Alcotest.(check bool)
    (Printf.sprintf "explored %d >= %d schedules" !explored expect_min)
    true (!explored >= expect_min);
  Alcotest.(check int) "no violations" 0 !failures

(* {1 AAC max register: 2 writers + 1 reader, all interleavings} *)

let test_aac_maxreg_exhaustive () =
  let session = Session.create () in
  let reg =
    Harness.Annotate.max_register session
      (Harness.Instances.maxreg_sim session ~n:3 ~bound:4
         Harness.Instances.Aac_maxreg)
  in
  let make_body pid () =
    match pid with
    | 0 -> reg.write_max ~pid 1
    | 1 -> reg.write_max ~pid 3
    | _ -> ignore (reg.read_max ())
  in
  (* AAC writes short-circuit when a concurrent writer already set a
     switch, so step counts are schedule-dependent — DPOR handles that *)
  check_dpor_classes ~session ~n:3 ~make_body
    ~check:
      (Linearize.Checker.check_trace (module Linearize.Spec.Max_register) ~n:3)
    ~classes:5

(* {1 CAS-loop max register (retries: schedule-dependent counts)} *)

let test_cas_maxreg_exhaustive () =
  let session = Session.create () in
  let reg =
    Harness.Annotate.max_register session
      (Harness.Instances.maxreg_sim session ~n:3 ~bound:8
         Harness.Instances.Cas_maxreg)
  in
  let make_body pid () =
    match pid with
    | 0 -> reg.write_max ~pid 2
    | 1 -> reg.write_max ~pid 5
    | _ -> ignore (reg.read_max ())
  in
  check_dpor_classes ~session ~n:3 ~make_body
    ~check:
      (Linearize.Checker.check_trace (module Linearize.Spec.Max_register) ~n:3)
    ~classes:12

(* {1 Naive counter: 2 incrementers + 1 reader} *)

let test_naive_counter_exhaustive () =
  let session = Session.create () in
  let c =
    Harness.Annotate.counter session
      (Harness.Instances.counter_sim session ~n:3 ~bound:8
         Harness.Instances.Naive_counter)
  in
  let make_body pid () =
    if pid < 2 then c.increment ~pid else ignore (c.read ())
  in
  check_fixed_interleavings ~session ~n:3 ~make_body
    ~check:(Linearize.Checker.check_trace (module Linearize.Spec.Counter) ~n:3)
    ~expect_min:80

(* {1 F-array counter: 2 concurrent incrementers, every trace class of
   their propagations (the double-refresh CAS torture test).  Formerly a
   184k-interleaving enumeration; DPOR covers the same space in under a
   hundred classes — the final count is invariant under swapping
   independent events, so the verdict is identical.} *)

let test_farray_counter_exhaustive () =
  let session = Session.create () in
  let c =
    Harness.Instances.counter_sim session ~n:2 ~bound:8
      Harness.Instances.Farray_counter
  in
  let make_body pid () = c.increment ~pid in
  let explored = ref 0 in
  let failures = ref 0 in
  let stats =
    Dpor.run session ~n:2 ~make_body
      ~on_complete:(fun _trace ->
        incr explored;
        (* no reader in-flight: the final count must be exactly 2 in every
           execution (no lost increment, no double count) *)
        if c.read () <> 2 then incr failures;
        true)
      ()
  in
  Alcotest.(check bool) "not truncated" false stats.Dpor.truncated;
  Alcotest.(check int) "pinned trace-class count (was 184k interleavings)"
    94 !explored;
  Alcotest.(check int) "no lost increments anywhere" 0 !failures

(* {1 F-array max register semantics through Algorithm A's propagate:
   1 writer + 1 reader, all interleavings} *)

let test_algorithm_a_writer_reader_exhaustive () =
  let session = Session.create () in
  let reg =
    Harness.Annotate.max_register session
      (Harness.Instances.maxreg_sim session ~n:2 ~bound:8
         Harness.Instances.Algorithm_a)
  in
  let make_body pid () =
    if pid = 0 then reg.write_max ~pid 5 else ignore (reg.read_max ())
  in
  check_fixed_interleavings ~session ~n:2 ~make_body
    ~check:
      (Linearize.Checker.check_trace (module Linearize.Spec.Max_register) ~n:2)
    ~expect_min:10

(* {1 Double-collect snapshot: updater + updater + scanner (scanner length
   is schedule-dependent: retries)} *)

let test_double_collect_exhaustive () =
  let session = Session.create () in
  let s =
    Harness.Annotate.snapshot session
      (Harness.Instances.snapshot_sim session ~n:3
         Harness.Instances.Double_collect)
  in
  let make_body pid () =
    if pid < 2 then s.update ~pid (pid + 5) else ignore (s.scan ())
  in
  check_dpor_classes ~session ~n:3 ~make_body
    ~check:(Linearize.Checker.check_trace (module Linearize.Spec.Snapshot) ~n:3)
    ~classes:11

(* {1 Afek snapshot: updater + scanner (borrowing path included)} *)

let test_afek_exhaustive () =
  let session = Session.create () in
  let s =
    Harness.Annotate.snapshot session
      (Harness.Instances.snapshot_sim session ~n:2 Harness.Instances.Afek)
  in
  let make_body pid () =
    if pid = 0 then s.update ~pid 9 else ignore (s.scan ())
  in
  check_dpor_classes ~session ~n:2 ~make_body
    ~check:(Linearize.Checker.check_trace (module Linearize.Spec.Snapshot) ~n:2)
    ~classes:3

(* {1 A2 ablation regression: single refresh LOSES updates, double does
   not — over every interleaving of two f-array increments} *)

let lost_updates ~refreshes =
  let session = Session.create () in
  let module F = Boxed.Farray in
  let sum a b =
    Simval.Int (Simval.int_or ~default:0 a + Simval.int_or ~default:0 b)
  in
  let t =
    Boxed.Raw.with_memory (Smem.Sim_memory.bind session) (fun () ->
        F.create ~refreshes ~n:2 ~combine:sum ())
  in
  let make_body pid () =
    let c = Simval.int_or ~default:0 (F.read_leaf t pid) in
    F.update t ~leaf:pid (Simval.Int (c + 1))
  in
  let counts = Explore.solo_counts session ~n:2 ~make_body in
  let lost = ref 0 in
  ignore
    (Explore.run_interleavings session ~make_body ~counts
       ~on_complete:(fun _ ->
         if Simval.int_or ~default:0 (F.read t) <> 2 then incr lost;
         true)
       ());
  !lost

let test_single_refresh_loses_updates () =
  Alcotest.(check bool) "single refresh drops increments" true
    (lost_updates ~refreshes:1 > 0)

(* {1 The interleaving enumerator agrees with the generic explorer} *)

(* {1 F-array snapshot: 2 concurrent updaters, all interleavings} *)

let test_farray_snapshot_exhaustive () =
  let session = Session.create () in
  let s =
    Harness.Instances.snapshot_sim session ~n:2
      Harness.Instances.Farray_snapshot
  in
  let make_body pid () = s.update ~pid (pid + 5) in
  let counts = Explore.solo_counts session ~n:2 ~make_body in
  let failures = ref 0 in
  let explored = ref 0 in
  let stats =
    Explore.run_interleavings session ~make_body ~counts
      ~on_complete:(fun _ ->
        incr explored;
        if s.scan () <> [| 5; 6 |] then incr failures;
        true)
      ()
  in
  Alcotest.(check bool) "not truncated" false stats.Explore.truncated;
  Alcotest.(check bool)
    (Printf.sprintf "explored %d" !explored)
    true (!explored > 1_000);
  Alcotest.(check int) "every interleaving converges" 0 !failures

(* {1 Unbounded B1 max register: 2 writers + reader, all interleavings} *)

let test_b1_maxreg_exhaustive () =
  let session = Session.create () in
  let reg =
    Harness.Annotate.max_register session
      (Harness.Instances.maxreg_sim session ~n:3 ~bound:8
         Harness.Instances.B1_maxreg)
  in
  let make_body pid () =
    match pid with
    | 0 -> reg.write_max ~pid 2
    | 1 -> reg.write_max ~pid 3
    | _ -> ignore (reg.read_max ())
  in
  check_dpor_classes ~session ~n:3 ~make_body
    ~check:
      (Linearize.Checker.check_trace (module Linearize.Spec.Max_register) ~n:3)
    ~classes:13

(* The interleaving enumerator visits exactly the multinomial number of
   schedules. *)
let prop_interleaving_count =
  QCheck.Test.make ~name:"run_interleavings visits multinomial(counts)"
    ~count:30
    QCheck.(pair (int_range 1 5) (int_range 1 5))
    (fun (c0, c1) ->
      let session = Session.create () in
      let a = Session.alloc session ~name:"a" (Simval.Int 0) in
      let make_body pid () =
        let steps = if pid = 0 then c0 else c1 in
        for _ = 1 to steps do
          ignore (Session.mem_op session a Event.Read)
        done
      in
      let seen = ref 0 in
      ignore
        (Explore.run_interleavings session ~make_body ~counts:[| c0; c1 |]
           ~on_complete:(fun _ -> incr seen; true)
           ());
      (* C(c0 + c1, c0) *)
      let rec fact n = if n <= 1 then 1 else n * fact (n - 1) in
      !seen = fact (c0 + c1) / (fact c0 * fact c1))

let test_enumerators_agree () =
  let session = Session.create () in
  let a = Session.alloc session ~name:"a" (Simval.Int 0) in
  let b = Session.alloc session ~name:"b" (Simval.Int 0) in
  let make_body pid () =
    let obj = if pid = 0 then a else b in
    ignore (Session.mem_op session obj Event.Read);
    ignore (Session.mem_op session obj (Event.Write (Simval.Int pid)))
  in
  let generic = ref 0 in
  let s1 =
    Explore.run session ~n:2 ~make_body
      ~on_complete:(fun _ -> incr generic; true)
      ()
  in
  let fixed = ref 0 in
  let s2 =
    Explore.run_interleavings session ~make_body ~counts:[| 2; 2 |]
      ~on_complete:(fun _ -> incr fixed; true)
      ()
  in
  Alcotest.(check bool) "neither truncated" false
    (s1.Explore.truncated || s2.Explore.truncated);
  (* interleavings of (2,2) = C(4,2) = 6 *)
  Alcotest.(check int) "generic count" 6 !generic;
  Alcotest.(check int) "fixed count" 6 !fixed

let () =
  Alcotest.run "exhaustive"
    [ ( "all interleavings",
        [ Alcotest.test_case "aac max register (w+w+r)" `Quick test_aac_maxreg_exhaustive;
          Alcotest.test_case "cas-loop max register (w+w+r)" `Quick test_cas_maxreg_exhaustive;
          Alcotest.test_case "naive counter (i+i+r)" `Quick test_naive_counter_exhaustive;
          Alcotest.test_case "algorithm A (w+r)" `Quick test_algorithm_a_writer_reader_exhaustive;
          Alcotest.test_case "double-collect (u+u+s)" `Quick test_double_collect_exhaustive;
          Alcotest.test_case "afek (u+s)" `Quick test_afek_exhaustive;
          Alcotest.test_case "farray counter (i+i), 94 classes (was 184k)" `Quick
            test_farray_counter_exhaustive;
          Alcotest.test_case "single refresh loses updates (A2)" `Quick
            test_single_refresh_loses_updates;
          Alcotest.test_case "farray snapshot (u+u)" `Quick
            test_farray_snapshot_exhaustive;
          Alcotest.test_case "b1 max register (w+w+r)" `Quick
            test_b1_maxreg_exhaustive;
          Alcotest.test_case "enumerators agree" `Quick test_enumerators_agree;
          QCheck_alcotest.to_alcotest prop_interleaving_count ] ) ]
