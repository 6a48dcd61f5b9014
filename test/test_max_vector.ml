(* Tests for N-component max vectors: sequential semantics, step counts,
   linearizability under random schedules, exhaustive interleavings, and a
   cross-component atomicity stress on real domains. *)

open Memsim

let make session ~n ~m =
  let module V = Maxarray.Max_vector in
  let t =
    Boxed.Raw.with_memory (Smem.Sim_memory.bind session) (V.create ~n ~m)
  in
  ( (fun ~pid ~component v -> V.max_update t ~pid ~component v),
    fun () -> V.max_scan t )

(* {1 Sequential} *)

let test_sequential () =
  let session = Session.create () in
  let update, scan = make session ~n:3 ~m:4 in
  Alcotest.(check (array int)) "initial" [| 0; 0; 0; 0 |] (scan ());
  update ~pid:0 ~component:2 9;
  update ~pid:1 ~component:0 4;
  Alcotest.(check (array int)) "two updates" [| 4; 0; 9; 0 |] (scan ());
  update ~pid:2 ~component:2 5;
  Alcotest.(check (array int)) "smaller ignored" [| 4; 0; 9; 0 |] (scan ());
  update ~pid:2 ~component:2 11;
  Alcotest.(check (array int)) "raised" [| 4; 0; 11; 0 |] (scan ())

let prop_sequential =
  QCheck.Test.make ~name:"max vector: componentwise running max" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 0 30)
              (pair (int_range 0 3) (int_range 0 40)))
    (fun ops ->
      let session = Session.create () in
      let update, scan = make session ~n:4 ~m:4 in
      let model = Array.make 4 0 in
      List.for_all
        (fun (component, v) ->
          update ~pid:(v mod 4) ~component v;
          model.(component) <- max model.(component) v;
          scan () = model)
        ops)

(* {1 Steps} *)

let test_steps () =
  List.iter
    (fun n ->
      let session = Session.create () in
      let update, scan = make session ~n ~m:3 in
      update ~pid:0 ~component:1 5;
      Session.reset_steps session;
      ignore (scan ());
      Alcotest.(check int) (Printf.sprintf "n=%d scan O(1)" n) 1
        (Session.direct_steps session);
      Session.reset_steps session;
      update ~pid:(n - 1) ~component:2 77;
      let u = Session.direct_steps session in
      let ceil_log2 x =
        let rec go d v = if v >= x then d else go (d + 1) (2 * v) in
        go 0 1
      in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d update %d steps" n u)
        true
        (u <= 2 + (8 * ceil_log2 n)))
    [ 2; 8; 64 ]

(* {1 Linearizability (annotated ops, random schedules)} *)

let annotated session ~n ~m =
  let update, scan = make session ~n ~m in
  let vupdate ~pid ~component v =
    Session.annotate_invoke session ~op:"vupdate"
      ~arg:(Simval.Vec [| Simval.Int component; Simval.Int v |]);
    update ~pid ~component v;
    Session.annotate_return session ~op:"vupdate" ~result:Simval.Bot
  in
  let vscan () =
    Session.annotate_invoke session ~op:"vscan" ~arg:(Simval.Int m);
    let r = scan () in
    Session.annotate_return session ~op:"vscan" ~result:(Simval.of_int_array r);
    r
  in
  (vupdate, vscan)

let test_linearizable_random () =
  for seed = 1 to 120 do
    let n = 4 and m = 3 in
    let session = Session.create () in
    let vupdate, vscan = annotated session ~n ~m in
    let rng = Random.State.make [| seed |] in
    let sched = Scheduler.create session in
    for pid = 0 to n - 1 do
      let component = Random.State.int rng m in
      let v = 1 + Random.State.int rng 7 in
      ignore
        (Scheduler.spawn sched (fun () ->
             if pid = n - 1 then ignore (vscan ())
             else vupdate ~pid ~component v))
    done;
    Faults.run_random ~seed ~max_events:1_000_000 sched (Faults.gate []);
    let trace = Scheduler.finish sched in
    if
      not
        (Linearize.Checker.check_trace (module Linearize.Spec.Max_vector) ~n
           trace)
    then Alcotest.failf "non-linearizable at seed %d" seed
  done

(* {1 Exhaustive: updates on two different components + a scanner} *)

let test_exhaustive () =
  let session = Session.create () in
  let vupdate, vscan = annotated session ~n:2 ~m:2 in
  let make_body pid () =
    if pid = 0 then vupdate ~pid ~component:0 5 else ignore (vscan ())
  in
  let explored = ref 0 in
  let failures = ref 0 in
  let stats =
    Explore.run session ~n:2 ~make_body
      ~on_complete:(fun trace ->
        incr explored;
        if
          not
            (Linearize.Checker.check_trace
               (module Linearize.Spec.Max_vector)
               ~n:2 trace)
        then incr failures;
        true)
      ()
  in
  Alcotest.(check bool) "not truncated" false stats.Explore.truncated;
  Alcotest.(check bool) "explored some" true (!explored >= 10);
  Alcotest.(check int) "no violations" 0 !failures

(* {1 Native domains: scans never regress in any component} *)

let test_native_monotone_scans () =
  let module V = Maxarray.Max_vector in
  let k = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let m = 3 in
  let t = Boxed.Raw.with_memory (module Smem.Atomic_memory) (V.create ~n:k ~m) in
  let ok = Atomic.make true in
  let domains =
    List.init k (fun d ->
        Domain.spawn (fun () ->
            if d = 0 then begin
              let last = Array.make m 0 in
              for _ = 1 to 3_000 do
                let s = V.max_scan t in
                Array.iteri
                  (fun i v ->
                    if v < last.(i) then Atomic.set ok false else last.(i) <- v)
                  s
              done
            end
            else
              for v = 1 to 800 do
                V.max_update t ~pid:d ~component:(v mod m) v
              done))
  in
  List.iter Domain.join domains;
  Alcotest.(check bool) "componentwise monotone" true (Atomic.get ok)

let () =
  Alcotest.run "max_vector"
    [ ( "sequential",
        [ Alcotest.test_case "basic" `Quick test_sequential;
          QCheck_alcotest.to_alcotest prop_sequential ] );
      ("steps", [ Alcotest.test_case "scan O(1), update O(log n)" `Quick test_steps ]);
      ( "linearizability",
        [ Alcotest.test_case "random schedules" `Quick test_linearizable_random;
          Alcotest.test_case "exhaustive (update || scan)" `Quick test_exhaustive ] );
      ( "native",
        [ Alcotest.test_case "monotone scans" `Quick test_native_monotone_scans ] ) ]
