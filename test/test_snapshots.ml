(* Tests for the snapshot implementations: sequential semantics, step
   complexity envelopes, linearizability under random schedules, the
   borrowed-scan path of Afek et al., and the Corollary 1 reduction. *)

open Memsim

let impls =
  [ Harness.Instances.Double_collect;
    Harness.Instances.Afek;
    Harness.Instances.Farray_snapshot ]

let make ~n impl =
  let session = Session.create () in
  (session, Harness.Instances.snapshot_sim session ~n impl)

let test_sequential impl () =
  let _, (s : Snapshots.Snapshot.instance) = make ~n:4 impl in
  Alcotest.(check (array int)) "initial zeros" [| 0; 0; 0; 0 |] (s.scan ());
  s.update ~pid:1 5;
  s.update ~pid:3 9;
  Alcotest.(check (array int)) "two updates" [| 0; 5; 0; 9 |] (s.scan ());
  s.update ~pid:1 2;
  Alcotest.(check (array int)) "segment overwritten" [| 0; 2; 0; 9 |] (s.scan ());
  s.add ~pid:3 4;
  s.add ~pid:0 1;
  Alcotest.(check (array int)) "adds" [| 1; 2; 0; 13 |] (s.scan ())

let prop_sequential impl =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: sequential = last write per segment"
             (Harness.Instances.snapshot_name impl))
    ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 0 25) (pair (int_range 0 3) (int_range 0 99)))
    (fun updates ->
      let _, (s : Snapshots.Snapshot.instance) = make ~n:4 impl in
      let model = Array.make 4 0 in
      List.for_all
        (fun (pid, v) ->
          s.update ~pid v;
          model.(pid) <- v;
          s.scan () = model)
        updates)

(* {1 Step complexity} *)

let scan_steps session (s : Snapshots.Snapshot.instance) =
  Session.reset_steps session;
  ignore (s.scan ());
  Session.direct_steps session

let update_steps session (s : Snapshots.Snapshot.instance) ~pid v =
  Session.reset_steps session;
  s.update ~pid v;
  Session.direct_steps session

let ceil_log2 n =
  let rec go d v = if v >= n then d else go (d + 1) (2 * v) in
  go 0 1

let test_farray_snapshot_steps () =
  List.iter
    (fun n ->
      let session, s = make ~n Harness.Instances.Farray_snapshot in
      s.update ~pid:0 1;
      Alcotest.(check int) (Printf.sprintf "n=%d scan O(1)" n) 1 (scan_steps session s);
      let u = update_steps session s ~pid:(n - 1) 7 in
      (* a read of its own leaf (the last sequence number), the leaf
         write, and two 4-event refreshes per level *)
      let bound = 2 + (8 * ceil_log2 n) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d update %d <= %d" n u bound)
        true (u <= bound))
    [ 2; 4; 16; 64; 256 ]

let test_double_collect_steps () =
  List.iter
    (fun n ->
      let session, s = make ~n Harness.Instances.Double_collect in
      Alcotest.(check int) (Printf.sprintf "n=%d update O(1)" n) 2
        (update_steps session s ~pid:0 5);
      (* uncontended scan: two identical collects *)
      Alcotest.(check int) (Printf.sprintf "n=%d scan 2N" n) (2 * n) (scan_steps session s))
    [ 2; 4; 16; 64 ]

let test_afek_steps_quadratic_envelope () =
  List.iter
    (fun n ->
      let session, s = make ~n Harness.Instances.Afek in
      (* solo: scan = 2 collects = 2N reads; update = scan + read + write *)
      Alcotest.(check int) (Printf.sprintf "n=%d scan" n) (2 * n) (scan_steps session s);
      Alcotest.(check int)
        (Printf.sprintf "n=%d update" n)
        ((2 * n) + 2)
        (update_steps session s ~pid:0 5))
    [ 2; 4; 16; 64 ]

(* {1 Linearizability under random schedules} *)

let check_linearizable impl ~seed ~n ~updaters =
  let session = Session.create () in
  let s =
    Harness.Annotate.snapshot session
      (Harness.Instances.snapshot_sim session ~n impl)
  in
  let rng = Random.State.make [| seed |] in
  let sched = Scheduler.create session in
  for pid = 0 to n - 1 do
    let v = 1 + Random.State.int rng 9 in
    ignore
      (Scheduler.spawn sched (fun () ->
           if pid < updaters then s.update ~pid v else ignore (s.scan ())))
  done;
  Faults.run_random ~seed ~max_events:500_000 sched (Faults.gate []);
  let trace = Scheduler.finish sched in
  Linearize.Checker.check_trace (module Linearize.Spec.Snapshot) ~n trace

let test_linearizable impl () =
  for seed = 1 to 50 do
    if not (check_linearizable impl ~seed ~n:4 ~updaters:2) then
      Alcotest.failf "%s: non-linearizable at seed %d"
        (Harness.Instances.snapshot_name impl)
        seed
  done

(* {1 The borrowed-scan path of Afek et al.}

   A scanner is interleaved with one process updating repeatedly; after the
   updater moves twice the scanner must borrow its embedded scan and
   terminate — wait-freedom under interference, where double-collect
   starves. *)
let test_afek_borrowed_scan () =
  let n = 3 in
  let session = Session.create () in
  let s = Harness.Instances.snapshot_sim session ~n Harness.Instances.Afek in
  s.update ~pid:1 7;
  let sched = Scheduler.create session in
  let result = ref [||] in
  let scanner = Scheduler.spawn sched (fun () -> result := s.scan ()) in
  let updater =
    Scheduler.spawn sched (fun () ->
        for v = 1 to 50 do
          s.update ~pid:0 v
        done)
  in
  (* Interleave: one scanner step, then one whole update. *)
  let guard = ref 0 in
  while Scheduler.is_active sched scanner && !guard < 10_000 do
    incr guard;
    ignore (Scheduler.step sched scanner);
    if Scheduler.is_active sched updater then begin
      (* let the updater complete a whole update between scanner steps *)
      let before = Scheduler.steps_of sched updater in
      let per_update = (2 * n) + 2 in
      while
        Scheduler.is_active sched updater
        && Scheduler.steps_of sched updater < before + per_update
      do
        ignore (Scheduler.step sched updater)
      done
    end
  done;
  Alcotest.(check bool) "scanner finished despite interference" true
    (Scheduler.is_finished sched scanner);
  ignore (Scheduler.finish sched);
  Alcotest.(check int) "borrowed scan sees segment 1" 7 !result.(1)

(* Double-collect starves under the same interference (obstruction-freedom
   only) — the contrast motivating helping. *)
let test_double_collect_starves () =
  let n = 2 in
  let session = Session.create () in
  let module S = Snapshots.Double_collect in
  let snap =
    Boxed.Raw.with_memory (Smem.Sim_memory.bind session)
      (S.create ~max_collects:50 ~n)
  in
  let sched = Scheduler.create session in
  let starved = ref false in
  let scanner =
    Scheduler.spawn sched (fun () ->
        try ignore (S.scan snap) with S.Starved -> starved := true)
  in
  let updater =
    Scheduler.spawn sched (fun () ->
        for v = 1 to 10_000 do
          S.update snap ~pid:0 v
        done)
  in
  (* Adversary: let the updater write between every pair of collects. *)
  let guard = ref 0 in
  while Scheduler.is_active sched scanner && !guard < 500_000 do
    incr guard;
    ignore (Scheduler.step sched scanner);
    if Scheduler.is_active sched updater then begin
      ignore (Scheduler.step sched updater);
      if Scheduler.is_active sched updater then
        ignore (Scheduler.step sched updater)
    end
  done;
  ignore (Scheduler.finish sched);
  Alcotest.(check bool) "scan starved" true !starved

(* {1 Corollary 1: counter from snapshot} *)

let test_counter_reduction impl () =
  let session = Session.create () in
  let c =
    Harness.Instances.counter_sim session ~n:4 ~bound:64
      (Harness.Instances.Snapshot_counter impl)
  in
  for _ = 1 to 5 do
    c.increment ~pid:0
  done;
  c.increment ~pid:2;
  Alcotest.(check int) "six increments" 6 (c.read ())

let per_impl name f =
  List.map
    (fun impl ->
      Alcotest.test_case
        (Printf.sprintf "%s %s" (Harness.Instances.snapshot_name impl) name)
        `Quick (f impl))
    impls

let () =
  Alcotest.run "snapshots"
    [ ( "sequential",
        per_impl "basic" test_sequential
        @ List.map (fun i -> QCheck_alcotest.to_alcotest (prop_sequential i)) impls );
      ( "steps",
        [ Alcotest.test_case "farray: scan O(1), update O(log N)" `Quick
            test_farray_snapshot_steps;
          Alcotest.test_case "double-collect: update O(1), scan O(N)" `Quick
            test_double_collect_steps;
          Alcotest.test_case "afek solo costs" `Quick test_afek_steps_quadratic_envelope ] );
      ("linearizability", per_impl "random schedules" test_linearizable);
      ( "liveness",
        [ Alcotest.test_case "afek borrows and terminates" `Quick test_afek_borrowed_scan;
          Alcotest.test_case "double-collect starves" `Quick test_double_collect_starves ] );
      ( "corollary 1",
        List.map
          (fun impl ->
            Alcotest.test_case
              (Printf.sprintf "counter via %s" (Harness.Instances.snapshot_name impl))
              `Quick (test_counter_reduction impl))
          impls ) ]
