(* A reproduction finding.

   Algorithm A as printed (line 16) returns from WriteMax(v) as soon as the
   selected leaf already holds a value >= v.  On a TL leaf, that value can
   only have been written by a *concurrent* WriteMax(v) that may not have
   propagated it to the root yet — so the completed WriteMax can be
   invisible to a subsequent ReadMax, violating linearizability.  (The
   paper's own Invariant 1 silently assumes every completing WriteMax
   executed line 17.)

   This file exhibits the violating schedule against the literal algorithm,
   checks the linearizability checker flags it, and checks our repaired
   variant (help by propagating before returning) passes the same schedule
   and stays within the O(log v) write bound. *)

open Memsim

let scenario ~literal =
  let n = 4 in
  let session = Session.create () in
  let impl =
    if literal then Harness.Instances.Algorithm_a_literal
    else Harness.Instances.Algorithm_a
  in
  let reg =
    Harness.Annotate.max_register session
      (Harness.Instances.maxreg_sim session ~n ~bound:16 impl)
  in
  let sched = Scheduler.create session in
  (* p0: WriteMax(2) — value 2 < N-1 lands in the B1 subtree.  Stalled
     right after writing the leaf, before any propagation. *)
  let p0 = Scheduler.spawn sched (fun () -> reg.write_max ~pid:0 2) in
  (* p1: WriteMax(2) — sees the leaf already at 2. *)
  let p1 = Scheduler.spawn sched (fun () -> reg.write_max ~pid:1 2) in
  (* p2: ReadMax after p1 completed. *)
  let result = ref (-1) in
  let p2 = Scheduler.spawn sched (fun () -> result := reg.read_max ()) in
  (* p0 takes exactly 2 steps: read leaf, write leaf.  Then stalls. *)
  ignore (Scheduler.step sched p0);
  ignore (Scheduler.step sched p0);
  (* p1 runs to completion. *)
  Scheduler.run_solo sched p1;
  Alcotest.(check bool) "p1 completed" true (Scheduler.is_finished sched p1);
  (* p2 reads. *)
  Scheduler.run_solo sched p2;
  let p1_steps = Scheduler.steps_of sched p1 in
  let trace = Scheduler.finish sched in
  ignore p0;
  (!result, p1_steps, trace)

let test_literal_version_violates () =
  let result, p1_steps, trace = scenario ~literal:true in
  (* The literal algorithm returns after a single leaf read... *)
  Alcotest.(check int) "p1 returned after one step" 1 p1_steps;
  (* ...so the completed WriteMax(2) is invisible to the reader. *)
  Alcotest.(check int) "reader misses the completed write" 0 result;
  Alcotest.(check bool) "history is NOT linearizable" false
    (Linearize.Checker.check_trace (module Linearize.Spec.Max_register) ~n:4
       trace)

let test_repaired_version_ok () =
  let result, p1_steps, trace = scenario ~literal:false in
  (* The repaired algorithm helps by propagating: O(log v) extra steps. *)
  Alcotest.(check bool) "p1 paid the propagation" true (p1_steps > 1);
  Alcotest.(check int) "reader sees the completed write" 2 result;
  Alcotest.(check bool) "history is linearizable" true
    (Linearize.Checker.check_trace (module Linearize.Spec.Max_register) ~n:4
       trace)

(* The repair preserves the complexity claim: the helping path costs no
   more than the writing path. *)
let test_repair_preserves_step_bound () =
  let n = 256 in
  let session = Session.create () in
  let reg = Harness.Instances.maxreg_sim session ~n ~bound:1024 Harness.Instances.Algorithm_a in
  List.iter
    (fun v ->
      (* First write pays leaf + propagation. *)
      Session.reset_steps session;
      reg.write_max ~pid:0 v;
      let first = Session.direct_steps session in
      (* Duplicate write triggers the helping path. *)
      Session.reset_steps session;
      reg.write_max ~pid:1 v;
      let help = Session.direct_steps session in
      Alcotest.(check bool)
        (Printf.sprintf "v=%d: help %d <= first %d" v help first)
        true (help <= first))
    [ 1; 3; 10; 50; 200; 254 ]

(* Under the *same* schedules, literal and repaired versions agree whenever
   no duplicate-value write occurs — regression that the repair changes
   nothing else. *)
let prop_no_duplicates_agree =
  QCheck.Test.make ~name:"literal = repaired without duplicate values"
    ~count:80
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 4) (int_range 0 15)))
    (fun (seed, values) ->
      let distinct = List.sort_uniq Int.compare values in
      let n = max 2 (List.length distinct) in
      let run impl =
        let session = Session.create () in
        let reg = Harness.Instances.maxreg_sim session ~n ~bound:16 impl in
        let sched = Scheduler.create session in
        List.iteri
          (fun pid v ->
            ignore (Scheduler.spawn sched (fun () -> reg.write_max ~pid v)))
          distinct;
        Faults.run_random ~seed ~max_events:100_000 sched (Faults.gate []);
        let trace = Scheduler.finish sched in
        (reg.read_max (), Array.length (Trace.events trace))
      in
      run Harness.Instances.Algorithm_a
      = run Harness.Instances.Algorithm_a_literal)

let () =
  Alcotest.run "paper_deviation"
    [ ( "algorithm A line 16",
        [ Alcotest.test_case "literal version violates linearizability" `Quick
            test_literal_version_violates;
          Alcotest.test_case "repaired version is linearizable" `Quick
            test_repaired_version_ok;
          Alcotest.test_case "repair preserves step bound" `Quick
            test_repair_preserves_step_bound;
          QCheck_alcotest.to_alcotest prop_no_duplicates_agree ] ) ]
