(* Tests for the information-flow analyses: visibility (Definition 1),
   awareness/familiarity (Definitions 2-4), and the sigma-schedule of
   Lemma 1 with its 3x growth bound. *)

open Memsim

(* [prim] as one step on [obj]. *)
let perform session obj : Event.prim -> unit = function
  | Event.Read -> ignore (Session.read session obj)
  | Event.Write v -> Session.write session obj v
  | Event.Cas { expected; desired } ->
    ignore (Session.cas session obj ~expected ~desired)

(* Run scripted processes: process i performs the listed primitives on the
   listed objects, in order; the schedule interleaves by pid. *)
let run_script ~objects ~procs ~schedule =
  let session = Session.create () in
  let objs =
    Array.map (fun (name, init) -> Session.alloc session ~name init) objects
  in
  let sched = Scheduler.create session in
  List.iteri
    (fun i ops ->
      let body () =
        List.iter
          (fun (obj_idx, prim) ->
            perform session objs.(obj_idx) prim)
          ops
      in
      let pid = Scheduler.spawn sched body in
      assert (pid = i))
    procs;
  Scheduler.run_schedule sched schedule;
  let trace = Scheduler.finish sched in
  (objs, trace)

let w v = Event.Write (Simval.Int v)
let cas a b = Event.Cas { expected = Simval.Int a; desired = Simval.Int b }

(* {1 Visibility} *)

let test_silent_overwrite_invisible () =
  (* p0 writes o, p1 overwrites before p0 moves again and before any read:
     p0's write is invisible. *)
  let _, trace =
    run_script
      ~objects:[| ("o", Simval.Int 0) |]
      ~procs:[ [ (0, w 1) ]; [ (0, w 2) ] ]
      ~schedule:[ 0; 1 ]
  in
  let vis = Infoflow.Visibility.compute (Trace.events trace) in
  Alcotest.(check (array bool)) "first hidden, second visible" [| false; true |] vis

let test_overwrite_after_writer_steps_is_visible () =
  (* p0 writes o then takes another step (on o2) before p1 overwrites:
     Definition 1's "p takes no steps" clause fails, so it is visible. *)
  let _, trace =
    run_script
      ~objects:[| ("o", Simval.Int 0); ("o2", Simval.Int 0) |]
      ~procs:[ [ (0, w 1); (1, w 5) ]; [ (0, w 2) ] ]
      ~schedule:[ 0; 0; 1 ]
  in
  let vis = Infoflow.Visibility.compute (Trace.events trace) in
  Alcotest.(check bool) "p0's write visible" true vis.(0)

let test_read_between_makes_visible () =
  (* p0 writes, p1 reads it, p2 overwrites: the read pins visibility. *)
  let _, trace =
    run_script
      ~objects:[| ("o", Simval.Int 0) |]
      ~procs:[ [ (0, w 1) ]; [ (0, Event.Read) ]; [ (0, w 2) ] ]
      ~schedule:[ 0; 1; 2 ]
  in
  let vis = Infoflow.Visibility.compute (Trace.events trace) in
  Alcotest.(check bool) "write visible" true vis.(0)

let test_trivial_events_invisible () =
  let _, trace =
    run_script
      ~objects:[| ("o", Simval.Int 3) |]
      ~procs:
        [ [ (0, Event.Read) ];      (* read: trivial *)
          [ (0, w 3) ];             (* write of current value: trivial *)
          [ (0, cas 9 5) ] ]        (* failing CAS: trivial *)
      ~schedule:[ 0; 1; 2 ]
  in
  let literal = Infoflow.Visibility.compute ~literal:true (Trace.events trace) in
  Alcotest.(check (array bool)) "literal: all invisible"
    [| false; false; false |] literal;
  (* Repaired rule: the value-preserving write re-asserts the value and
     stays visible; reads and failed CAS remain invisible. *)
  let repaired = Infoflow.Visibility.compute (Trace.events trace) in
  Alcotest.(check (array bool)) "repaired: trivial write visible"
    [| false; true; false |] repaired

(* The information leak of the literal Definition 1 (see Visibility): two
   processes write the same value; under the literal rule neither write is
   ever visible — the first is masked by the second, the second is trivial —
   yet a reader decodes the changed value.  The repaired rule keeps the
   last write visible, restoring the flow Lemma 3 depends on. *)
let test_same_value_masking_leak () =
  let _, trace =
    run_script
      ~objects:[| ("o", Simval.Int 0) |]
      ~procs:[ [ (0, w 1) ]; [ (0, w 1) ]; [ (0, Event.Read) ] ]
      ~schedule:[ 0; 1; 2 ]
  in
  let events = Trace.events trace in
  let literal = Infoflow.Visibility.compute ~literal:true events in
  Alcotest.(check (array bool)) "literal: both writes invisible"
    [| false; false; false |] literal;
  let a_lit = Infoflow.Awareness.of_trace ~literal:true trace in
  Alcotest.(check bool) "literal: reader aware of nobody" false
    (Infoflow.Awareness.Int_set.mem 0 (Infoflow.Awareness.aw_of a_lit 2)
     || Infoflow.Awareness.Int_set.mem 1 (Infoflow.Awareness.aw_of a_lit 2));
  let repaired = Infoflow.Visibility.compute events in
  Alcotest.(check (array bool)) "repaired: last write visible"
    [| false; true; false |] repaired;
  let a_rep = Infoflow.Awareness.of_trace trace in
  Alcotest.(check bool) "repaired: reader aware of last writer" true
    (Infoflow.Awareness.Int_set.mem 1 (Infoflow.Awareness.aw_of a_rep 2))

let test_successful_cas_visible () =
  let _, trace =
    run_script
      ~objects:[| ("o", Simval.Int 0) |]
      ~procs:[ [ (0, cas 0 7) ] ]
      ~schedule:[ 0 ]
  in
  let vis = Infoflow.Visibility.compute (Trace.events trace) in
  Alcotest.(check (array bool)) "cas visible" [| true |] vis

let test_cas_overwrite_does_not_hide () =
  (* Definition 1: only a *write* hides; an overwriting CAS leaves the
     earlier event visible. *)
  let _, trace =
    run_script
      ~objects:[| ("o", Simval.Int 0) |]
      ~procs:[ [ (0, w 1) ]; [ (0, cas 1 2) ] ]
      ~schedule:[ 0; 1 ]
  in
  let vis = Infoflow.Visibility.compute (Trace.events trace) in
  Alcotest.(check (array bool)) "write stays visible" [| true; true |] vis

(* {1 Awareness and familiarity} *)

let analysis trace = Infoflow.Awareness.of_trace trace

let aware a p q = Infoflow.Awareness.Int_set.mem q (Infoflow.Awareness.aw_of a p)

let test_reader_becomes_aware_of_writer () =
  let _, trace =
    run_script
      ~objects:[| ("o", Simval.Int 0) |]
      ~procs:[ [ (0, w 1) ]; [ (0, Event.Read) ] ]
      ~schedule:[ 0; 1 ]
  in
  let a = analysis trace in
  Alcotest.(check bool) "p1 aware of p0" true (aware a 1 0);
  Alcotest.(check bool) "p0 not aware of p1" false (aware a 0 1)

let test_writer_gains_no_awareness () =
  (* Writes return nothing: overwriting a visible value conveys no
     information to the overwriter. *)
  let _, trace =
    run_script
      ~objects:[| ("o", Simval.Int 0); ("x", Simval.Int 0) |]
      ~procs:[ [ (0, w 1); (1, w 9) ]; [ (0, w 2) ] ]
      ~schedule:[ 0; 0; 1 ]
  in
  let a = analysis trace in
  Alcotest.(check bool) "overwriter unaware" false (aware a 1 0)

let test_cas_gains_awareness_even_when_failing () =
  (* The boolean response of a CAS reveals the object's state. *)
  let _, trace =
    run_script
      ~objects:[| ("o", Simval.Int 0) |]
      ~procs:[ [ (0, w 1) ]; [ (0, cas 5 6) ] ]
      ~schedule:[ 0; 1 ]
  in
  let a = analysis trace in
  Alcotest.(check bool) "failed CAS still aware" true (aware a 1 0)

let test_transitive_awareness () =
  (* p0 -> o1 -> p1 -> o2 -> p2: p2 learns about p0 through p1. *)
  let _, trace =
    run_script
      ~objects:[| ("o1", Simval.Int 0); ("o2", Simval.Int 0) |]
      ~procs:
        [ [ (0, w 1) ];
          [ (0, Event.Read); (1, w 1) ];
          [ (1, Event.Read) ] ]
      ~schedule:[ 0; 1; 1; 2 ]
  in
  let a = analysis trace in
  Alcotest.(check bool) "p1 aware of p0" true (aware a 1 0);
  Alcotest.(check bool) "p2 aware of p1" true (aware a 2 1);
  Alcotest.(check bool) "p2 aware of p0 transitively" true (aware a 2 0)

let test_invisible_write_conveys_nothing () =
  (* p0's write is silently overwritten; a later reader learns only about
     the overwriter. *)
  let _, trace =
    run_script
      ~objects:[| ("o", Simval.Int 0) |]
      ~procs:[ [ (0, w 1) ]; [ (0, w 2) ]; [ (0, Event.Read) ] ]
      ~schedule:[ 0; 1; 2 ]
  in
  let a = analysis trace in
  Alcotest.(check bool) "reader unaware of hidden writer" false (aware a 2 0);
  Alcotest.(check bool) "reader aware of visible writer" true (aware a 2 1)

let test_familiarity_accumulates () =
  let objs, trace =
    run_script
      ~objects:[| ("o", Simval.Int 0) |]
      ~procs:
        [ [ (0, w 1); (0, Event.Read) ]; (* p0 writes, then reads again *)
          [ (0, w 2) ] ]
      ~schedule:[ 0; 0; 1 ]
  in
  let a = analysis trace in
  let fam = Infoflow.Awareness.fam_of a objs.(0) in
  (* both writes were visible (p0 stepped in between), so o is familiar
     with both writers *)
  Alcotest.(check bool) "familiar with p0" true
    (Infoflow.Awareness.Int_set.mem 0 fam);
  Alcotest.(check bool) "familiar with p1" true
    (Infoflow.Awareness.Int_set.mem 1 fam)

let test_hidden_set () =
  (* Two processes writing distinct objects are mutually hidden. *)
  let objs, trace =
    run_script
      ~objects:[| ("a", Simval.Int 0); ("b", Simval.Int 0) |]
      ~procs:[ [ (0, w 1) ]; [ (1, w 1) ] ]
      ~schedule:[ 0; 1 ]
  in
  let a = analysis trace in
  Alcotest.(check bool) "p0 hidden" true
    (Infoflow.Awareness.is_hidden a ~pids:[ 0; 1 ] ~pid:0);
  Alcotest.(check bool) "p1 hidden" true
    (Infoflow.Awareness.is_hidden a ~pids:[ 0; 1 ] ~pid:1);
  Alcotest.(check bool) "objects familiar with one each" true
    (Infoflow.Awareness.each_object_familiar_with_at_most_one a
       ~objs:(Array.to_list objs) ~set:[ 0; 1 ])

(* {1 Lemma 1: the sigma-schedule bounds M growth by 3x per round} *)

let random_ops rng ~nobjs ~len =
  List.init len (fun _ ->
      let obj = Random.State.int rng nobjs in
      match Random.State.int rng 3 with
      | 0 -> (obj, Event.Read)
      | 1 -> (obj, w (Random.State.int rng 4))
      | _ -> (obj, cas (Random.State.int rng 4) (Random.State.int rng 4)))

let prop_lemma1_growth =
  QCheck.Test.make ~name:"lemma 1: 3x growth (literal), 4x (repaired)" ~count:150
    QCheck.(small_int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nprocs = 2 + Random.State.int rng 8 in
      let nobjs = 1 + Random.State.int rng 4 in
      let session = Session.create () in
      let objs =
        Array.init nobjs (fun i ->
            Session.alloc session ~name:(Printf.sprintf "o%d" i) (Simval.Int 0))
      in
      let sched = Scheduler.create session in
      let pids =
        List.init nprocs (fun i ->
            let ops = random_ops rng ~nobjs ~len:(1 + Random.State.int rng 6) in
            Scheduler.spawn sched (fun () ->
                List.iter
                  (fun (obj_idx, prim) ->
                    perform session objs.(obj_idx) prim)
                  ops)
            |> fun pid -> ignore i; pid)
      in
      (* run sigma rounds to completion, recording boundaries *)
      let boundaries = ref [ 0 ] in
      let rec loop () =
        let live = List.filter (Scheduler.is_active sched) pids in
        if live <> [] then begin
          ignore (Infoflow.Sigma.round sched live);
          boundaries := Scheduler.event_count sched :: !boundaries;
          loop ()
        end
      in
      loop ();
      let trace = Scheduler.finish sched in
      (* Lemma 1's 3x bound holds for the literal Definition 1; under the
         repaired rule (needed by Lemma 3) value-preserving events stay
         visible inside sigma_1 and the factor weakens to 4. *)
      let bound_ok ~literal ~factor =
        let a = Infoflow.Awareness.of_trace ~literal trace in
        let ms =
          List.rev_map (fun k -> Infoflow.Awareness.m_after a k) !boundaries
        in
        let rec ok = function
          | m1 :: (m2 :: _ as rest) -> m2 <= factor * max 1 m1 && ok rest
          | [ _ ] | [] -> true
        in
        ok ms
      in
      bound_ok ~literal:true ~factor:3 && bound_ok ~literal:false ~factor:4)

(* {1 Claim 1 / Lemma 2 as a property: erasing a *hidden* process from any
   execution leaves an execution that is indistinguishable to every other
   process.} *)

let prop_claim1_hidden_erasure =
  QCheck.Test.make ~name:"claim 1: erasing a hidden process is invisible"
    ~count:200
    QCheck.(small_int)
    (fun seed ->
      let rng = Random.State.make [| seed; 17 |] in
      let nprocs = 2 + Random.State.int rng 6 in
      let nobjs = 1 + Random.State.int rng 4 in
      let session = Session.create () in
      let objs =
        Array.init nobjs (fun i ->
            Session.alloc session ~name:(Printf.sprintf "o%d" i) (Simval.Int 0))
      in
      let scripts =
        Array.init nprocs (fun _ ->
            random_ops rng ~nobjs ~len:(1 + Random.State.int rng 5))
      in
      let make_body pid () =
        List.iter
          (fun (obj_idx, prim) ->
            perform session objs.(obj_idx) prim)
          scripts.(pid)
      in
      (* random execution *)
      let sched = Scheduler.create session in
      for pid = 0 to nprocs - 1 do
        ignore (Scheduler.spawn sched (make_body pid))
      done;
      Faults.run_random ~seed ~max_events:1_000 sched (Faults.gate []);
      let trace = Scheduler.finish sched in
      let a = analysis trace in
      let pids = List.init nprocs Fun.id in
      (* every process hidden after E can be erased invisibly *)
      let hidden =
        List.filter
          (fun p ->
            Infoflow.Awareness.is_hidden a ~pids ~pid:p
            && Array.length (Trace.events_of trace p) > 0)
          pids
      in
      List.for_all
        (fun victim ->
          let schedule =
            Replay.erase_from_schedule (Trace.schedule trace) ~erased:[ victim ]
          in
          match
            Replay.replay session ~n:nprocs ~make_body ~schedule ()
          with
          | exception _ -> false
          | sched2 ->
            let replayed = Scheduler.current_trace sched2 in
            ignore (Scheduler.finish sched2);
            let survivors = List.filter (fun p -> p <> victim) pids in
            (match
               Replay.indistinguishable_for_all ~old_trace:trace
                 ~new_trace:replayed ~pids:survivors
             with
             | Ok () -> true
             | Error _ -> false))
        hidden)

(* Conversely: erasing a process someone IS aware of gets detected (on
   executions where awareness is real, i.e. the reader read a changed
   value). *)
let test_erasing_known_process_detected () =
  let session = Session.create () in
  let o = Session.alloc session ~name:"o" (Simval.Int 0) in
  let make_body pid () =
    if pid = 0 then Session.write session o (Simval.Int 1)
    else ignore (Session.read session o)
  in
  let sched = Scheduler.create session in
  ignore (Scheduler.spawn sched (make_body 0));
  ignore (Scheduler.spawn sched (make_body 1));
  Scheduler.run_schedule sched [ 0; 1 ];
  let trace = Scheduler.finish sched in
  let a = analysis trace in
  Alcotest.(check bool) "p1 aware of p0" true (aware a 1 0);
  let schedule =
    Replay.erase_from_schedule (Trace.schedule trace) ~erased:[ 0 ]
  in
  let sched2 = Replay.replay session ~n:2 ~make_body ~schedule () in
  let replayed = Scheduler.current_trace sched2 in
  ignore (Scheduler.finish sched2);
  (match
     Replay.indistinguishable_for ~old_trace:trace ~new_trace:replayed ~pid:1
   with
   | Ok () -> Alcotest.fail "erasure of a known process went undetected"
   | Error _ -> ())

(* The sigma-round orders events quiet -> writes -> cas. *)
let test_sigma_ordering () =
  let session = Session.create () in
  let o = Session.alloc session ~name:"o" (Simval.Int 0) in
  let x = Session.alloc session ~name:"x" (Simval.Int 0) in
  let sched = Scheduler.create session in
  let p_read = Scheduler.spawn sched (fun () -> ignore (Session.read session o)) in
  let p_write = Scheduler.spawn sched (fun () -> Session.write session x (Simval.Int 1)) in
  let p_cas = Scheduler.spawn sched (fun () -> perform session o (cas 0 5)) in
  ignore (Infoflow.Sigma.round sched [ p_cas; p_write; p_read ]);
  let trace = Scheduler.finish sched in
  let order = Array.map (fun (e : Event.t) -> e.Event.pid) (Trace.events trace) in
  Alcotest.(check (array int)) "quiet, write, cas" [| p_read; p_write; p_cas |] order

(* In a sigma round, CAS events after the first successful one on the same
   object are trivial (the familiarity argument of Lemma 1, case 2). *)
let test_sigma_cas_once () =
  let session = Session.create () in
  let o = Session.alloc session ~name:"o" (Simval.Int 0) in
  let sched = Scheduler.create session in
  let oks = Array.make 4 false in
  let pids =
    List.init 4 (fun i ->
        Scheduler.spawn sched (fun () ->
            oks.(i) <-
              Session.cas session o ~expected:(Simval.Int 0)
                ~desired:(Simval.Int (i + 1))))
  in
  ignore (Infoflow.Sigma.round sched pids);
  ignore (Scheduler.finish sched);
  let successes = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 oks in
  Alcotest.(check int) "exactly one CAS succeeds" 1 successes

let () =
  Alcotest.run "infoflow"
    [ ( "visibility",
        [ Alcotest.test_case "silent overwrite" `Quick test_silent_overwrite_invisible;
          Alcotest.test_case "writer stepped" `Quick test_overwrite_after_writer_steps_is_visible;
          Alcotest.test_case "read pins" `Quick test_read_between_makes_visible;
          Alcotest.test_case "trivial events" `Quick test_trivial_events_invisible;
          Alcotest.test_case "same-value masking leak" `Quick test_same_value_masking_leak;
          Alcotest.test_case "successful cas" `Quick test_successful_cas_visible;
          Alcotest.test_case "cas does not hide" `Quick test_cas_overwrite_does_not_hide ] );
      ( "awareness",
        [ Alcotest.test_case "reader learns writer" `Quick test_reader_becomes_aware_of_writer;
          Alcotest.test_case "writer learns nothing" `Quick test_writer_gains_no_awareness;
          Alcotest.test_case "failed cas learns" `Quick test_cas_gains_awareness_even_when_failing;
          Alcotest.test_case "transitive" `Quick test_transitive_awareness;
          Alcotest.test_case "invisible conveys nothing" `Quick test_invisible_write_conveys_nothing;
          Alcotest.test_case "familiarity accumulates" `Quick test_familiarity_accumulates;
          Alcotest.test_case "hidden set" `Quick test_hidden_set ] );
      ( "erasure",
        [ QCheck_alcotest.to_alcotest prop_claim1_hidden_erasure;
          Alcotest.test_case "known erasure detected" `Quick
            test_erasing_known_process_detected ] );
      ( "sigma",
        [ Alcotest.test_case "ordering" `Quick test_sigma_ordering;
          Alcotest.test_case "one cas wins" `Quick test_sigma_cas_once;
          QCheck_alcotest.to_alcotest prop_lemma1_growth ] ) ]
