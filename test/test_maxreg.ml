(* Tests for the max-register implementations: sequential correctness,
   step-complexity bounds (Theorem 6 for Algorithm A, O(log M) for AAC),
   concurrent linearizability under random schedules, wait-freedom. *)

open Memsim

let impls =
  [ Harness.Instances.Algorithm_a;
    Harness.Instances.Aac_maxreg;
    Harness.Instances.B1_maxreg;
    Harness.Instances.Cas_maxreg ]

let make ~n ~bound impl =
  let session = Session.create () in
  (session, Harness.Instances.maxreg_sim session ~n ~bound impl)

(* {1 Sequential correctness} *)

let test_sequential_basic impl () =
  let _, (reg : Maxreg.Max_register.instance) = make ~n:4 ~bound:128 impl in
  Alcotest.(check int) "initially 0" 0 (reg.read_max ());
  reg.write_max ~pid:0 5;
  Alcotest.(check int) "after 5" 5 (reg.read_max ());
  reg.write_max ~pid:1 3;
  Alcotest.(check int) "3 ignored" 5 (reg.read_max ());
  reg.write_max ~pid:2 100;
  Alcotest.(check int) "after 100" 100 (reg.read_max ());
  reg.write_max ~pid:3 100;
  Alcotest.(check int) "repeat ignored" 100 (reg.read_max ())

let prop_sequential_matches_spec impl =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: sequential = running max" (Harness.Instances.maxreg_name impl))
    ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (int_range 0 127))
    (fun values ->
      let _, (reg : Maxreg.Max_register.instance) = make ~n:4 ~bound:128 impl in
      let model = ref 0 in
      List.for_all
        (fun v ->
          reg.write_max ~pid:(v mod 4) v;
          model := max !model v;
          reg.read_max () = !model)
        values)

(* A bounded register holds values below its bound only: a larger
   value is refused before the first step, in both compiles, rather
   than dropped. *)
let test_aac_refuses_out_of_range () =
  let refused =
    Invalid_argument "Aac_maxreg.write_max: value outside [0, bound)"
  in
  let session, reg = make ~n:4 ~bound:8 Harness.Instances.Aac_maxreg in
  reg.write_max ~pid:0 5;
  Session.reset_steps session;
  Alcotest.check_raises "write 100 at bound 8" refused (fun () ->
      reg.write_max ~pid:0 100);
  Alcotest.(check int) "no step taken" 0 (Session.direct_steps session);
  Alcotest.(check int) "maximum unchanged" 5 (reg.read_max ());
  reg.write_max ~pid:0 7;
  Alcotest.(check int) "bound - 1 fits" 7 (reg.read_max ());
  let module U = Unboxed.Aac_maxreg in
  let u = U.create ~bound:8 () in
  Alcotest.check_raises "unboxed: write 8 at bound 8" refused (fun () ->
      U.write_max u ~pid:0 8);
  Alcotest.(check int) "unboxed maximum unchanged" 0 (U.read_max u)

(* {1 Step complexity (the paper's Theorem 6 and the AAC bound)} *)

let steps_of_write session (reg : Maxreg.Max_register.instance) ~pid v =
  Session.reset_steps session;
  reg.write_max ~pid v;
  Session.direct_steps session

let steps_of_read session (reg : Maxreg.Max_register.instance) =
  Session.reset_steps session;
  ignore (reg.read_max ());
  Session.direct_steps session

let test_algorithm_a_read_constant () =
  List.iter
    (fun n ->
      let session, reg = make ~n ~bound:(n * n) Harness.Instances.Algorithm_a in
      reg.write_max ~pid:0 (n / 2);
      Alcotest.(check int)
        (Printf.sprintf "read is 1 step at n=%d" n)
        1
        (steps_of_read session reg))
    [ 2; 4; 16; 64; 256; 1024 ]

let ceil_log2 n =
  let rec go d v = if v >= n then d else go (d + 1) (2 * v) in
  go 0 1

(* WriteMax(v) of Algorithm A is O(min(log N, log v)): ~8 events per tree
   level plus the leaf read/write. *)
let test_algorithm_a_write_log_v () =
  let n = 1024 in
  let session, reg = make ~n ~bound:(n * n) Harness.Instances.Algorithm_a in
  List.iter
    (fun v ->
      let steps = steps_of_write session reg ~pid:1 v in
      let levels = (2 * ceil_log2 (v + 2)) + 3 in
      let bound = (8 * levels) + 2 in
      Alcotest.(check bool)
        (Printf.sprintf "write(%d): %d steps <= %d" v steps bound)
        true (steps <= bound))
    [ 1; 2; 3; 7; 15; 100; 500; 1022 ]

let test_algorithm_a_write_log_n_for_large_v () =
  (* values >= N go to the complete tree: O(log N) regardless of v *)
  List.iter
    (fun n ->
      let session, reg = make ~n ~bound:max_int Harness.Instances.Algorithm_a in
      let huge = 1_000_000_000 + n in
      let steps = steps_of_write session reg ~pid:(n - 1) huge in
      let bound = (8 * (ceil_log2 n + 2)) + 2 in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: write(huge) %d <= %d" n steps bound)
        true (steps <= bound))
    [ 2; 8; 64; 512 ]

let test_aac_ops_log_m () =
  List.iter
    (fun bound ->
      let session, reg = make ~n:4 ~bound Harness.Instances.Aac_maxreg in
      let wsteps = steps_of_write session reg ~pid:0 (bound - 1) in
      let rsteps = steps_of_read session reg in
      let lim = ceil_log2 bound + 2 in
      Alcotest.(check bool)
        (Printf.sprintf "M=%d: write %d <= %d" bound wsteps lim)
        true (wsteps <= lim);
      Alcotest.(check bool)
        (Printf.sprintf "M=%d: read %d <= %d" bound rsteps lim)
        true (rsteps <= lim))
    [ 2; 4; 16; 256; 4096; 65536 ]

(* AAC reads get *more* expensive as M grows while Algorithm A stays at 1:
   the tradeoff the paper studies. *)
let test_read_complexity_separation () =
  let bound = 65536 in
  let session_a, reg_a = make ~n:8 ~bound Harness.Instances.Algorithm_a in
  let session_b, reg_b = make ~n:8 ~bound Harness.Instances.Aac_maxreg in
  reg_a.write_max ~pid:0 (bound - 1);
  reg_b.write_max ~pid:0 (bound - 1);
  let ra = steps_of_read session_a reg_a in
  let rb = steps_of_read session_b reg_b in
  Alcotest.(check int) "algorithm A read" 1 ra;
  Alcotest.(check bool) "AAC read pays log M" true (rb >= ceil_log2 bound)

(* {1 Wait-freedom: solo completion within the step bound, from any
   reachable intermediate state} *)

let test_wait_free_completion impl () =
  let session = Session.create () in
  let reg = Harness.Instances.maxreg_sim session ~n:6 ~bound:256 impl in
  let sched = Scheduler.create session in
  for pid = 0 to 4 do
    ignore (Scheduler.spawn sched (fun () -> reg.write_max ~pid ((pid * 13) mod 256)))
  done;
  (* Random partial execution, then each process runs solo: must finish. *)
  Faults.run_random ~seed:42 ~max_events:30 sched (Faults.gate []);
  for pid = 0 to 4 do
    Scheduler.run_solo ~max_events:10_000 sched pid;
    Alcotest.(check bool)
      (Printf.sprintf "p%d finished" pid)
      true
      (Scheduler.is_finished sched pid)
  done;
  ignore (Scheduler.finish sched)

(* {1 Concurrent linearizability under many random schedules} *)

let check_linearizable impl ~seed ~n ~writes =
  let session = Session.create () in
  let reg =
    Harness.Annotate.max_register session
      (Harness.Instances.maxreg_sim session ~n ~bound:64 impl)
  in
  let rng = Random.State.make [| seed |] in
  let sched = Scheduler.create session in
  for pid = 0 to n - 1 do
    let v = Random.State.int rng 64 in
    ignore
      (Scheduler.spawn sched (fun () ->
           if pid < writes then reg.write_max ~pid v
           else ignore (reg.read_max ())))
  done;
  Faults.run_random ~seed ~max_events:100_000 sched (Faults.gate []);
  let trace = Scheduler.finish sched in
  Linearize.Checker.check_trace (module Linearize.Spec.Max_register) ~n trace

let test_linearizable_random impl () =
  for seed = 1 to 150 do
    if not (check_linearizable impl ~seed ~n:4 ~writes:2) then
      Alcotest.failf "%s: non-linearizable at seed %d"
        (Harness.Instances.maxreg_name impl)
        seed
  done

let test_linearizable_heavy impl () =
  for seed = 1 to 40 do
    if not (check_linearizable impl ~seed ~n:5 ~writes:4) then
      Alcotest.failf "%s: non-linearizable at seed %d"
        (Harness.Instances.maxreg_name impl)
        seed
  done

(* {1 Concurrent writes then read: the maximum always survives} *)

let prop_concurrent_max_survives impl =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s: max survives any schedule"
         (Harness.Instances.maxreg_name impl))
    ~count:60
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 5) (int_range 0 63)))
    (fun (seed, values) ->
      let n = List.length values in
      let session = Session.create () in
      let reg = Harness.Instances.maxreg_sim session ~n ~bound:64 impl in
      let sched = Scheduler.create session in
      List.iteri
        (fun pid v -> ignore (Scheduler.spawn sched (fun () -> reg.write_max ~pid v)))
        values;
      Faults.run_random ~seed ~max_events:1_000_000 sched (Faults.gate []);
      ignore (Scheduler.finish sched);
      reg.read_max () = List.fold_left max 0 values)

let per_impl name f = List.map (fun impl ->
    Alcotest.test_case
      (Printf.sprintf "%s %s" (Harness.Instances.maxreg_name impl) name)
      `Quick (f impl))
    impls

let () =
  Alcotest.run "maxreg"
    [ ("sequential",
       per_impl "basic" test_sequential_basic
       @ List.map (fun i -> QCheck_alcotest.to_alcotest (prop_sequential_matches_spec i)) impls
       @ [ Alcotest.test_case "aac: value >= bound refused" `Quick
             test_aac_refuses_out_of_range ]);
      ( "steps",
        [ Alcotest.test_case "algorithm A: read O(1)" `Quick test_algorithm_a_read_constant;
          Alcotest.test_case "algorithm A: write O(log v)" `Quick test_algorithm_a_write_log_v;
          Alcotest.test_case "algorithm A: write O(log N) for big v" `Quick
            test_algorithm_a_write_log_n_for_large_v;
          Alcotest.test_case "AAC: both ops O(log M)" `Quick test_aac_ops_log_m;
          Alcotest.test_case "read separation" `Quick test_read_complexity_separation ] );
      ("wait-freedom", per_impl "solo completion" test_wait_free_completion);
      ( "linearizability",
        per_impl "random schedules" test_linearizable_random
        @ per_impl "write-heavy" test_linearizable_heavy
        @ List.map (fun i -> QCheck_alcotest.to_alcotest (prop_concurrent_max_survives i)) impls ) ]
