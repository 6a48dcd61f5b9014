(* Tests for the generic f-array: aggregation correctness, step counts
   (read O(1), update O(log N)), ABA-freedom under adversarial schedules. *)

open Memsim

let make_sum session ~n =
  let module F = Boxed.Farray in
  let t =
    Boxed.Raw.with_memory (Smem.Sim_memory.bind session) (fun () ->
        F.create ~n
          ~combine:(fun a b ->
            Simval.Int
              (Simval.int_or ~default:0 a + Simval.int_or ~default:0 b))
          ())
  in
  ( (fun i v -> F.update t ~leaf:i (Simval.Int v)),
    (fun () -> Simval.int_or ~default:0 (F.read t)),
    fun i -> Simval.int_or ~default:0 (F.read_leaf t i) )

let test_sum_sequential () =
  let session = Session.create () in
  let update, read, read_leaf = make_sum session ~n:8 in
  Alcotest.(check int) "empty sum" 0 (read ());
  update 0 5;
  update 3 7;
  update 7 1;
  Alcotest.(check int) "sum" 13 (read ());
  update 3 2;
  Alcotest.(check int) "overwrite leaf" 8 (read ());
  Alcotest.(check int) "leaf read" 2 (read_leaf 3)

let test_max_aggregate () =
  let session = Session.create () in
  let module F = Boxed.Farray in
  let t =
    Boxed.Raw.with_memory (Smem.Sim_memory.bind session) (fun () ->
        F.create ~n:5 ~combine:Simval.max_val ())
  in
  F.update t ~leaf:1 (Simval.Int 9);
  F.update t ~leaf:4 (Simval.Int 3);
  Alcotest.(check bool) "max" true (Simval.equal (F.read t) (Simval.Int 9))

let test_read_is_one_step () =
  let session = Session.create () in
  let update, read, _ = make_sum session ~n:64 in
  update 5 10;
  Session.reset_steps session;
  ignore (read ());
  Alcotest.(check int) "read O(1)" 1 (Session.direct_steps session)

let ceil_log2 n =
  let rec go d v = if v >= n then d else go (d + 1) (2 * v) in
  go 0 1

let test_update_is_log_steps () =
  List.iter
    (fun n ->
      let session = Session.create () in
      let update, _, _ = make_sum session ~n in
      Session.reset_steps session;
      update (n - 1) 3;
      let steps = Session.direct_steps session in
      let bound = 1 + (8 * ceil_log2 n) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: update %d <= %d" n steps bound)
        true (steps <= bound))
    [ 2; 4; 8; 64; 256; 1024 ]

(* Double-refresh correctness: even under an adversarial interleaving the
   root converges to the true sum once all updates complete. *)
let prop_concurrent_sum_correct =
  QCheck.Test.make ~name:"farray sum correct under random schedules" ~count:80
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 6) (int_range 1 100)))
    (fun (seed, values) ->
      let n = List.length values in
      let session = Session.create () in
      let update, read, _ = make_sum session ~n in
      let sched = Scheduler.create session in
      List.iteri
        (fun pid v -> ignore (Scheduler.spawn sched (fun () -> update pid v)))
        values;
      Scheduler.run_random ~seed ~max_events:1_000_000 sched;
      ignore (Scheduler.finish sched);
      read () = List.fold_left ( + ) 0 values)

(* The stalled-propagator scenario that double refresh exists for: a
   process stalls mid-propagation; a later update must still make the root
   reflect both leaves once it completes. *)
let test_stalled_propagator () =
  let session = Session.create () in
  let update, read, _ = make_sum session ~n:4 in
  let sched = Scheduler.create session in
  let p0 = Scheduler.spawn sched (fun () -> update 0 100) in
  let p1 = Scheduler.spawn sched (fun () -> update 1 10) in
  (* p0 writes its leaf then stalls before finishing propagation. *)
  ignore (Scheduler.step sched p0);
  ignore (Scheduler.step sched p0);
  (* p1 runs to completion: its double refresh must absorb p0's leaf. *)
  Scheduler.run_solo sched p1;
  ignore (Scheduler.finish sched);
  Alcotest.(check int) "root includes the stalled write" 110 (read ())

let () =
  Alcotest.run "farray"
    [ ( "sequential",
        [ Alcotest.test_case "sum" `Quick test_sum_sequential;
          Alcotest.test_case "max" `Quick test_max_aggregate ] );
      ( "steps",
        [ Alcotest.test_case "read O(1)" `Quick test_read_is_one_step;
          Alcotest.test_case "update O(log n)" `Quick test_update_is_log_steps ] );
      ( "concurrency",
        [ QCheck_alcotest.to_alcotest prop_concurrent_sum_correct;
          Alcotest.test_case "stalled propagator" `Quick test_stalled_propagator ] ) ]
