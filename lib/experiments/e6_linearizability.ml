(* E6 — Theorem 5 (linearizability of Algorithm A) and its boundary.

   Every implementation is run under many random schedules, histories
   extracted, and checked with the Wing-Gong checker.  The literal
   Algorithm A (paper's line 16 early return) is included: random schedules
   over *duplicate* small values expose its non-linearizable executions,
   while the repaired version passes everything — the reproduction finding
   of test_paper_deviation.ml at statistical scale. *)

open Memsim

type row = {
  kind : string;
  impl : string;
  schedules : int;
  violations : int;
}

let maxreg_row ?(schedules = 400) ~dup_values impl =
  let violations = ref 0 in
  for seed = 1 to schedules do
    let n = 4 in
    let session = Session.create () in
    let reg =
      Harness.Annotate.max_register session
        (Harness.Instances.maxreg_sim session ~n ~bound:8 impl)
    in
    let rng = Random.State.make [| seed |] in
    let sched = Scheduler.create session in
    if dup_values then begin
      (* Two writers of the same small value plus a reader, with the first
         writer stalled right after its leaf write (the proof schedule of
         the line-16 deviation), the rest randomly interleaved. *)
      let v = 1 + Random.State.int rng 2 in
      let w0 = Scheduler.spawn sched (fun () -> reg.write_max ~pid:0 v) in
      let w1 = Scheduler.spawn sched (fun () -> reg.write_max ~pid:1 v) in
      let rd = Scheduler.spawn sched (fun () -> ignore (reg.read_max ())) in
      (* w0: leaf read + leaf write, then stalled *)
      ignore (Scheduler.step sched w0);
      ignore (Scheduler.step sched w0);
      (* w1 completes, then the reader, then w0 resumes *)
      Scheduler.run_solo sched w1;
      Scheduler.run_solo sched rd;
      Scheduler.run_solo sched w0
    end
    else begin
      for pid = 0 to n - 1 do
        let v = Random.State.int rng 8 in
        ignore
          (Scheduler.spawn sched (fun () ->
               if pid = n - 1 then ignore (reg.read_max ())
               else reg.write_max ~pid v))
      done;
      Faults.run_random ~seed ~max_events:100_000 sched (Faults.gate [])
    end;
    let trace = Scheduler.finish sched in
    if
      not
        (Linearize.Checker.check_trace
           (module Linearize.Spec.Max_register)
           ~n trace)
    then incr violations
  done;
  { kind = "max-register";
    impl =
      Harness.Instances.maxreg_name impl
      ^ (if dup_values then " (stall schedule)" else "");
    schedules;
    violations = !violations }

let counter_row ?(schedules = 200) impl =
  let violations = ref 0 in
  for seed = 1 to schedules do
    let n = 4 in
    let session = Session.create () in
    let c =
      Harness.Annotate.counter session
        (Harness.Instances.counter_sim session ~n ~bound:16 impl)
    in
    let sched = Scheduler.create session in
    for pid = 0 to n - 1 do
      ignore
        (Scheduler.spawn sched (fun () ->
             if pid >= n - 2 then ignore (c.read ()) else c.increment ~pid))
    done;
    Faults.run_random ~seed ~max_events:200_000 sched (Faults.gate []);
    let trace = Scheduler.finish sched in
    if not (Linearize.Checker.check_trace (module Linearize.Spec.Counter) ~n trace)
    then incr violations
  done;
  { kind = "counter";
    impl = Harness.Instances.counter_name impl;
    schedules;
    violations = !violations }

let snapshot_row ?(schedules = 200) impl =
  let violations = ref 0 in
  for seed = 1 to schedules do
    let n = 4 in
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
             if pid >= n - 2 then ignore (s.scan ()) else s.update ~pid v))
    done;
    Faults.run_random ~seed ~max_events:500_000 sched (Faults.gate []);
    let trace = Scheduler.finish sched in
    if not (Linearize.Checker.check_trace (module Linearize.Spec.Snapshot) ~n trace)
    then incr violations
  done;
  { kind = "snapshot";
    impl = Harness.Instances.snapshot_name impl;
    schedules;
    violations = !violations }

let sweep ?schedules () =
  List.map
    (fun impl -> maxreg_row ?schedules ~dup_values:false impl)
    [ Harness.Instances.Algorithm_a;
      Harness.Instances.Algorithm_a_literal;
      Harness.Instances.Aac_maxreg;
      Harness.Instances.B1_maxreg;
      Harness.Instances.Cas_maxreg ]
  @ [ maxreg_row ?schedules ~dup_values:true Harness.Instances.Algorithm_a;
      maxreg_row ?schedules ~dup_values:true Harness.Instances.Algorithm_a_literal ]
  @ List.map (counter_row ?schedules)
      [ Harness.Instances.Farray_counter;
        Harness.Instances.Aac_counter;
        Harness.Instances.Naive_counter ]
  @ List.map (snapshot_row ?schedules)
      [ Harness.Instances.Farray_snapshot;
        Harness.Instances.Double_collect;
        Harness.Instances.Afek ]

let table rows =
  Harness.Tables.render
    ~title:
      "E6: linearizability under random schedules (violations expected ONLY \
       for the literal Algorithm A)"
    ~header:[ "object"; "impl"; "schedules"; "violations" ]
    (List.map
       (fun r ->
         [ r.kind; r.impl; string_of_int r.schedules; string_of_int r.violations ])
       rows)

let run ?schedules () = table (sweep ?schedules ())
