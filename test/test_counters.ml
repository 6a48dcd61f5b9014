(* Tests for the counter implementations: sequential counting, step
   complexity envelopes (AAC: read O(log N)/inc O(log^2 N); f-array: read
   O(1)/inc O(log N); naive: read O(N)/inc O(1)), linearizability, and the
   Corollary 1 snapshot reduction. *)

open Memsim

let impls =
  [ Harness.Instances.Aac_counter;
    Harness.Instances.Farray_counter;
    Harness.Instances.Naive_counter;
    Harness.Instances.Snapshot_counter Harness.Instances.Farray_snapshot;
    Harness.Instances.Snapshot_counter Harness.Instances.Afek ]

let make ~n ~bound impl =
  let session = Session.create () in
  (session, Harness.Instances.counter_sim session ~n ~bound impl)

let test_sequential impl () =
  let _, (c : Counters.Counter.instance) = make ~n:4 ~bound:128 impl in
  Alcotest.(check int) "zero" 0 (c.read ());
  for i = 1 to 20 do
    c.increment ~pid:(i mod 4);
    Alcotest.(check int) (Printf.sprintf "count %d" i) i (c.read ())
  done

let prop_sequential impl =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: sequential counting" (Harness.Instances.counter_name impl))
    ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 0 30) (int_range 0 3))
    (fun pids ->
      let _, (c : Counters.Counter.instance) = make ~n:4 ~bound:64 impl in
      List.iteri (fun _ pid -> c.increment ~pid) pids;
      c.read () = List.length pids)

(* The AAC counter holds at most [bound] increments: the one past it
   raises, in both compiles, rather than leaving a wrong count. *)
let test_aac_refuses_past_bound () =
  let refused =
    Invalid_argument "Aac_maxreg.write_max: value outside [0, bound)"
  in
  let _, c = make ~n:2 ~bound:2 Harness.Instances.Aac_counter in
  c.increment ~pid:0;
  c.increment ~pid:1;
  Alcotest.(check int) "two increments fit" 2 (c.read ());
  Alcotest.check_raises "third increment" refused (fun () ->
      c.increment ~pid:0);
  let module U = Unboxed.Aac_counter in
  let u = U.create ~n:2 ~bound:2 () in
  U.increment u ~pid:0;
  U.increment u ~pid:1;
  Alcotest.(check int) "unboxed: two increments fit" 2 (U.read u);
  Alcotest.check_raises "unboxed: third increment" refused (fun () ->
      U.increment u ~pid:1)

(* {1 Step complexity} *)

let ceil_log2 n =
  let rec go d v = if v >= n then d else go (d + 1) (2 * v) in
  go 0 1

let read_steps session (c : Counters.Counter.instance) =
  Session.reset_steps session;
  ignore (c.read ());
  Session.direct_steps session

let inc_steps session (c : Counters.Counter.instance) ~pid =
  Session.reset_steps session;
  c.increment ~pid;
  Session.direct_steps session

let test_farray_counter_steps () =
  List.iter
    (fun n ->
      let session, c = make ~n ~bound:(4 * n) Harness.Instances.Farray_counter in
      c.increment ~pid:0;
      Alcotest.(check int) (Printf.sprintf "n=%d read O(1)" n) 1 (read_steps session c);
      let inc = inc_steps session c ~pid:(n - 1) in
      let bound = 2 + (8 * ceil_log2 n) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d inc %d <= %d" n inc bound)
        true (inc <= bound))
    [ 2; 4; 16; 64; 256 ]

let test_naive_counter_steps () =
  List.iter
    (fun n ->
      let session, c = make ~n ~bound:(4 * n) Harness.Instances.Naive_counter in
      Alcotest.(check int) (Printf.sprintf "n=%d inc O(1)" n) 2 (inc_steps session c ~pid:0);
      Alcotest.(check int) (Printf.sprintf "n=%d read O(N)" n) n (read_steps session c))
    [ 2; 4; 16; 64; 256 ]

let test_aac_counter_steps () =
  List.iter
    (fun n ->
      let bound = n * n in
      let session, c = make ~n ~bound Harness.Instances.Aac_counter in
      c.increment ~pid:0;
      let r = read_steps session c in
      let r_bound = ceil_log2 (bound + 2) + 2 in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d read %d <= %d (log B)" n r r_bound)
        true (r <= r_bound);
      let i = inc_steps session c ~pid:(n - 1) in
      (* log N levels, each a couple of max-register reads and one
         write_max, all O(log B) *)
      let i_bound = 2 + (ceil_log2 n + 1) * (3 * r_bound) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d inc %d <= %d (log N log B)" n i i_bound)
        true (i <= i_bound))
    [ 2; 4; 16; 64 ]

(* The read-vs-update tradeoff is real: ordering of implementations by read
   cost is the reverse of their ordering by increment cost. *)
let test_tradeoff_ordering () =
  let n = 64 in
  let measure impl =
    let session, c = make ~n ~bound:(n * n) impl in
    c.increment ~pid:0;
    (read_steps session c, inc_steps session c ~pid:1)
  in
  let r_farray, i_farray = measure Harness.Instances.Farray_counter in
  let r_aac, i_aac = measure Harness.Instances.Aac_counter in
  let r_naive, i_naive = measure Harness.Instances.Naive_counter in
  Alcotest.(check bool) "reads: farray < aac < naive" true
    (r_farray < r_aac && r_aac < r_naive);
  Alcotest.(check bool) "increments: naive < farray < aac" true
    (i_naive < i_farray && i_farray < i_aac)

(* {1 Linearizability} *)

let check_linearizable impl ~seed ~n ~incs =
  let session = Session.create () in
  let c =
    Harness.Annotate.counter session
      (Harness.Instances.counter_sim session ~n ~bound:64 impl)
  in
  let sched = Scheduler.create session in
  for pid = 0 to n - 1 do
    ignore
      (Scheduler.spawn sched (fun () ->
           if pid < incs then c.increment ~pid else ignore (c.read ())))
  done;
  Faults.run_random ~seed ~max_events:200_000 sched (Faults.gate []);
  let trace = Scheduler.finish sched in
  Linearize.Checker.check_trace (module Linearize.Spec.Counter) ~n trace

let test_linearizable impl () =
  for seed = 1 to 60 do
    if not (check_linearizable impl ~seed ~n:4 ~incs:2) then
      Alcotest.failf "%s: non-linearizable at seed %d"
        (Harness.Instances.counter_name impl)
        seed
  done

(* {1 Concurrent increments all land} *)

let prop_no_lost_increments impl =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: no lost increments" (Harness.Instances.counter_name impl))
    ~count:50
    QCheck.(pair small_int (int_range 2 6))
    (fun (seed, n) ->
      let session = Session.create () in
      let c = Harness.Instances.counter_sim session ~n ~bound:64 impl in
      let sched = Scheduler.create session in
      for pid = 0 to n - 1 do
        ignore (Scheduler.spawn sched (fun () -> c.increment ~pid))
      done;
      Faults.run_random ~seed ~max_events:1_000_000 sched (Faults.gate []);
      ignore (Scheduler.finish sched);
      c.read () = n)

let per_impl name f =
  List.map
    (fun impl ->
      Alcotest.test_case
        (Printf.sprintf "%s %s" (Harness.Instances.counter_name impl) name)
        `Quick (f impl))
    impls

let () =
  Alcotest.run "counters"
    [ ( "sequential",
        per_impl "basic" test_sequential
        @ List.map (fun i -> QCheck_alcotest.to_alcotest (prop_sequential i)) impls
        @ [ Alcotest.test_case "aac: increment past bound refused" `Quick
              test_aac_refuses_past_bound ] );
      ( "steps",
        [ Alcotest.test_case "farray: read O(1), inc O(log N)" `Quick test_farray_counter_steps;
          Alcotest.test_case "naive: inc O(1), read O(N)" `Quick test_naive_counter_steps;
          Alcotest.test_case "aac: read O(log B), inc O(log N log B)" `Quick test_aac_counter_steps;
          Alcotest.test_case "tradeoff ordering" `Quick test_tradeoff_ordering ] );
      ( "linearizability",
        per_impl "random schedules" test_linearizable
        @ List.map (fun i -> QCheck_alcotest.to_alcotest (prop_no_lost_increments i)) impls ) ]
