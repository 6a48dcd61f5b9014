(* Tests for the shared-memory simulator: store semantics, effect-based
   scheduling, traces, direct mode, replay. *)

open Memsim

let reg session name init = Session.alloc session ~name init

(* {1 Store} *)

let test_store_basic () =
  let store = Store.create () in
  let a = Store.alloc store ~name:"a" (Simval.Int 1) in
  let b = Store.alloc store ~name:"b" Simval.Bot in
  Alcotest.(check int) "two objects" 2 (Store.size store);
  Alcotest.(check bool) "get a" true (Simval.equal (Store.get store a) (Simval.Int 1));
  Alcotest.(check bool) "get b" true (Simval.equal (Store.get store b) Simval.Bot);
  Alcotest.(check string) "name" "b" (Store.name store b)

let test_store_apply () =
  let store = Store.create () in
  let a = Store.alloc store ~name:"a" (Simval.Int 0) in
  (match Store.apply store a Event.Read with
   | Event.RVal v -> Alcotest.(check bool) "read 0" true (Simval.equal v (Simval.Int 0))
   | _ -> Alcotest.fail "bad response");
  (match Store.apply store a (Event.Write (Simval.Int 7)) with
   | Event.RAck -> ()
   | _ -> Alcotest.fail "bad response");
  (match Store.apply store a (Event.Cas { expected = Simval.Int 7; desired = Simval.Int 9 }) with
   | Event.RBool b -> Alcotest.(check bool) "cas success" true b
   | _ -> Alcotest.fail "bad response");
  (match Store.apply store a (Event.Cas { expected = Simval.Int 7; desired = Simval.Int 11 }) with
   | Event.RBool b -> Alcotest.(check bool) "cas failure" false b
   | _ -> Alcotest.fail "bad response");
  Alcotest.(check bool) "final" true (Simval.equal (Store.get store a) (Simval.Int 9))

let test_store_would_change () =
  let store = Store.create () in
  let a = Store.alloc store ~name:"a" (Simval.Int 3) in
  Alcotest.(check bool) "read trivial" false (Store.would_change store a Event.Read);
  Alcotest.(check bool) "same write trivial" false
    (Store.would_change store a (Event.Write (Simval.Int 3)));
  Alcotest.(check bool) "new write changes" true
    (Store.would_change store a (Event.Write (Simval.Int 4)));
  Alcotest.(check bool) "failing cas trivial" false
    (Store.would_change store a (Event.Cas { expected = Simval.Int 9; desired = Simval.Int 4 }));
  Alcotest.(check bool) "identity cas trivial" false
    (Store.would_change store a (Event.Cas { expected = Simval.Int 3; desired = Simval.Int 3 }));
  Alcotest.(check bool) "real cas changes" true
    (Store.would_change store a (Event.Cas { expected = Simval.Int 3; desired = Simval.Int 4 }))

let test_store_reset () =
  let store = Store.create () in
  let a = Store.alloc store ~name:"a" (Simval.Int 1) in
  Store.set store a (Simval.Int 42);
  Store.reset store;
  Alcotest.(check bool) "reset to initial" true
    (Simval.equal (Store.get store a) (Simval.Int 1))

(* {1 Direct mode} *)

let test_direct_mode_counts_steps () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  Session.reset_steps session;
  ignore (Session.read session a);
  Session.write session a (Simval.Int 5);
  ignore (Session.cas session a ~expected:(Simval.Int 5) ~desired:(Simval.Int 6));
  Alcotest.(check int) "three steps" 3 (Session.direct_steps session)

(* {1 Scheduling} *)

let test_round_robin_interleaves () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let sched = Scheduler.create session in
  let bump () =
    let v = Session.read session a in
    Session.write session a (Simval.Int (Simval.int_exn v + 1))
  in
  let p0 = Scheduler.spawn sched bump in
  let p1 = Scheduler.spawn sched bump in
  Faults.run_round_robin sched (Faults.gate []);
  let trace = Scheduler.finish sched in
  (* Round robin: p0 read, p1 read, p0 write, p1 write => lost update. *)
  Alcotest.(check int) "four events" 4 (Array.length (Trace.events trace));
  Alcotest.(check int) "p0 steps" 2 (Trace.step_count trace p0);
  Alcotest.(check int) "p1 steps" 2 (Trace.step_count trace p1);
  Alcotest.(check bool) "lost update" true
    (Simval.equal (Store.get (Session.store session) a) (Simval.Int 1))

let test_solo_runs_to_completion () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let sched = Scheduler.create session in
  let body () =
    for _ = 1 to 10 do
      Session.write session a (Simval.Int 1)
    done
  in
  let p = Scheduler.spawn sched body in
  Alcotest.(check bool) "active before" true (Scheduler.is_active sched p);
  Scheduler.run_solo sched p;
  Alcotest.(check bool) "finished" true (Scheduler.is_finished sched p);
  Alcotest.(check int) "ten steps" 10 (Scheduler.steps_of sched p);
  ignore (Scheduler.finish sched)

let test_enabled_peek_is_not_a_step () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let sched = Scheduler.create session in
  let p =
    Scheduler.spawn sched (fun () ->
        Session.write session a (Simval.Int 1))
  in
  (match Scheduler.enabled sched p with
   | Some (obj, Event.Write v) ->
     Alcotest.(check int) "object" a obj;
     Alcotest.(check bool) "operand" true (Simval.equal v (Simval.Int 1))
   | _ -> Alcotest.fail "expected enabled write");
  Alcotest.(check int) "no event applied" 0 (Scheduler.event_count sched);
  Alcotest.(check bool) "value unchanged" true
    (Simval.equal (Store.get (Session.store session) a) (Simval.Int 0));
  ignore (Scheduler.finish sched)

let test_scheduler_controls_cas_interleaving () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let sched = Scheduler.create session in
  let outcomes = Array.make 2 true in
  let body i () =
    outcomes.(i) <-
      Session.cas session a ~expected:(Simval.Int 0)
        ~desired:(Simval.Int (i + 1))
  in
  let p0 = Scheduler.spawn sched (body 0) in
  let p1 = Scheduler.spawn sched (body 1) in
  (* Schedule p1 first: its CAS wins, p0's fails. *)
  Scheduler.run_schedule sched [ p1; p0 ];
  ignore (Scheduler.finish sched);
  Alcotest.(check bool) "p1 won" true outcomes.(1);
  Alcotest.(check bool) "p0 lost" false outcomes.(0);
  Alcotest.(check bool) "value from p1" true
    (Simval.equal (Store.get (Session.store session) a) (Simval.Int 2))

let test_erase_live () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let sched = Scheduler.create session in
  let p =
    Scheduler.spawn sched (fun () ->
        Session.write session a (Simval.Int 1))
  in
  Alcotest.(check bool) "active" true (Scheduler.is_active sched p);
  Scheduler.erase sched p;
  Alcotest.(check bool) "inactive after erase" false (Scheduler.is_active sched p);
  Alcotest.(check int) "no events" 0 (Scheduler.event_count sched);
  ignore (Scheduler.finish sched)

let test_annotations_recorded () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let sched = Scheduler.create session in
  let p =
    Scheduler.spawn sched (fun () ->
        Session.annotate_invoke session ~op:"op" ~arg:(Simval.Int 7);
        Session.write session a (Simval.Int 7);
        Session.annotate_return session ~op:"op" ~result:Simval.Bot)
  in
  Scheduler.run_solo sched p;
  let trace = Scheduler.finish sched in
  let entries = Trace.entries trace in
  Alcotest.(check int) "three entries" 3 (Array.length entries);
  (match entries.(0), entries.(2) with
   | Trace.Invoke { op = "op"; _ }, Trace.Return { op = "op"; _ } -> ()
   | _ -> Alcotest.fail "expected invoke/return around the event")

(* {1 Process failures} *)

let test_process_exception_propagates () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let sched = Scheduler.create session in
  let p =
    Scheduler.spawn sched (fun () ->
        ignore (Session.read session a);
        failwith "boom")
  in
  (* The exception surfaces when the step resumes the body past the read. *)
  Alcotest.check_raises "failure surfaces with pid"
    (Scheduler.Process_failure (p, Failure "boom"))
    (fun () -> ignore (Scheduler.step sched p));
  Alcotest.(check bool) "process is finished after failing" true
    (Scheduler.is_finished sched p);
  ignore (Scheduler.finish sched)

(* {1 Replay} *)

let test_replay_reproduces_execution () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let make_body pid () =
    let v = Session.read session a in
    Session.write session a (Simval.Int (Simval.int_exn v + 10 + pid))
  in
  (* Original run: interleave 2 processes. *)
  let sched = Scheduler.create session in
  for pid = 0 to 1 do
    ignore (Scheduler.spawn sched (make_body pid))
  done;
  Scheduler.run_schedule sched [ 0; 1; 0; 1 ];
  let original = Scheduler.finish sched in
  (* Full replay matches. *)
  let sched2 =
    Replay.replay session ~n:2 ~make_body ~schedule:(Trace.schedule original) ()
  in
  let replayed = Scheduler.current_trace sched2 in
  ignore (Scheduler.finish sched2);
  (match
     Replay.indistinguishable_for_all ~old_trace:original ~new_trace:replayed
       ~pids:[ 0; 1 ]
   with
   | Ok () -> ()
   | Error m -> Alcotest.fail m)

let test_replay_with_erasure () =
  let session = Session.create () in
  (* Two processes on distinct objects: erasing one cannot affect the
     other (they are mutually hidden). *)
  let a = reg session "a" (Simval.Int 0) in
  let b = reg session "b" (Simval.Int 0) in
  let make_body pid () =
    let obj = if pid = 0 then a else b in
    let v = Session.read session obj in
    Session.write session obj (Simval.Int (Simval.int_exn v + 1))
  in
  let sched = Scheduler.create session in
  for pid = 0 to 1 do
    ignore (Scheduler.spawn sched (make_body pid))
  done;
  Scheduler.run_schedule sched [ 0; 1; 0; 1 ];
  let original = Scheduler.finish sched in
  let filtered =
    Replay.erase_from_schedule (Trace.schedule original) ~erased:[ 1 ]
  in
  Alcotest.(check (list int)) "filtered schedule" [ 0; 0 ] filtered;
  let sched2 = Replay.replay session ~n:2 ~make_body ~schedule:filtered () in
  let replayed = Scheduler.current_trace sched2 in
  ignore (Scheduler.finish sched2);
  (match
     Replay.indistinguishable_for ~old_trace:original ~new_trace:replayed
       ~pid:0
   with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  Alcotest.(check int) "p1 gone" 0 (Trace.step_count replayed 1)

let test_replay_detects_divergence () =
  let session = Session.create () in
  (* Both processes race on one object; erasing the winner changes the
     loser's view, which indistinguishability must detect. *)
  let a = reg session "a" (Simval.Int 0) in
  let make_body pid () =
    Session.write session a (Simval.Int pid);
    ignore (Session.read session a)
  in
  let sched = Scheduler.create session in
  for pid = 0 to 1 do
    ignore (Scheduler.spawn sched (make_body pid))
  done;
  Scheduler.run_schedule sched [ 0; 1; 0; 1 ];
  let original = Scheduler.finish sched in
  (* p0's read returned 1 (p1 overwrote).  Without p1 it returns 0. *)
  let filtered =
    Replay.erase_from_schedule (Trace.schedule original) ~erased:[ 1 ]
  in
  let sched2 = Replay.replay session ~n:2 ~make_body ~schedule:filtered () in
  let replayed = Scheduler.current_trace sched2 in
  ignore (Scheduler.finish sched2);
  (match
     Replay.indistinguishable_for ~old_trace:original ~new_trace:replayed
       ~pid:0
   with
   | Ok () -> Alcotest.fail "expected divergence to be detected"
   | Error _ -> ())

(* {1 Restart}

   A restart at a point of a run must equal the replay of that point's
   schedule.  Random 3-process programs over two objects: every operation
   is annotated, [nop] issues no event (its annotations are recorded with
   no event of its own), [rw] reads and then writes, and each write adds
   what its process has read so far, so a wrong answer to a
   fast-forwarded read shows in a later event. *)

type prog_op = { kind : int; obj : int; a : int; b : int }

let nop = 3

let prog_op_name op =
  match op.kind with
  | 0 -> "read"
  | 1 -> "write"
  | 2 -> "cas"
  | 3 -> "nop"
  | _ -> "rw"

let progs_arb =
  let print op =
    Printf.sprintf "%s(%d,%d)@o%d" (prog_op_name op) op.a op.b op.obj
  in
  QCheck.make
    ~print:(fun progs ->
      String.concat " | "
        (Array.to_list
           (Array.map (fun p -> String.concat ";" (List.map print p)) progs)))
    QCheck.Gen.(
      array_size (return 3)
        (list_size (int_range 0 4)
           (map
              (fun (kind, obj, (a, b)) -> { kind; obj; a; b })
              (triple (int_range 0 4) (int_range 0 1)
                 (pair (int_range 0 2) (int_range 0 2))))))

let restart_scenario progs =
  let session = Session.create () in
  let objs =
    [| reg session "x" (Simval.Int 0); reg session "y" (Simval.Int 0) |]
  in
  let make_body pid () =
    let seen = ref 0 in
    let read obj =
      let v = Session.read session obj in
      seen := !seen + Simval.int_or ~default:0 v;
      v
    in
    let write obj a =
      Session.write session obj (Simval.Int (a + !seen))
    in
    List.iter
      (fun op ->
        let name = prog_op_name op and obj = objs.(op.obj) in
        Session.annotate_invoke session ~op:name ~arg:(Simval.Int op.a);
        let result =
          match op.kind with
          | 0 -> read obj
          | 1 -> write obj op.a; Simval.Bot
          | 2 ->
            Simval.Int
              (Bool.to_int
                 (Session.cas session obj ~expected:(Simval.Int op.a)
                    ~desired:(Simval.Int op.b)))
          | k when k = nop -> Simval.Bot
          | _ -> let v = read obj in write obj op.b; v
        in
        Session.annotate_return session ~op:name ~result)
      progs.(pid)
  in
  (session, Array.to_list objs, make_body)

(* What a test can see of an open run: its entries and store, each
   process's steps, whether it has finished and its enabled event, the
   entries after that inspection, and after one more step of [next].
   Finishes the run. *)
let observe session objs sched next =
  let entries () = Trace.entries (Scheduler.current_trace sched) in
  let store () = List.map (Store.get (Session.store session)) objs in
  let before = entries () and values = store () in
  let steps = List.init 3 (Scheduler.steps_of sched) in
  let finished = List.init 3 (Scheduler.is_finished sched) in
  let enabled = List.init 3 (Scheduler.enabled sched) in
  let inspected = entries () in
  let stepped =
    Option.map
      (fun pid ->
        ignore (Scheduler.step sched pid : Event.t);
        (entries (), store ()))
      next
  in
  ignore (Scheduler.finish sched : Trace.t);
  (before, values, steps, finished, enabled, inspected, stepped)

let prop_restart_equals_replay =
  QCheck.Test.make ~name:"a restart equals the replay of its prefix"
    ~count:200 (QCheck.pair progs_arb QCheck.small_nat)
    (fun (progs, seed) ->
      let session, objs, make_body = restart_scenario progs in
      let run = Replay.replay session ~n:3 ~make_body ~schedule:[] () in
      Faults.run_random ~seed run (Faults.gate []);
      let schedule = Array.of_list (Trace.schedule (Scheduler.finish run)) in
      let len = Array.length schedule in
      let next i = if i < len then Some schedule.(i) else None in
      let replayed =
        Array.init (len + 1) (fun i ->
            observe session objs
              (Replay.replay session ~n:3 ~make_body
                 ~schedule:(Array.to_list (Array.sub schedule 0 i)) ())
              (next i))
      in
      let equals_replay i p =
        observe session objs (Scheduler.restart session ~n:3 ~make_body p)
          (next i)
        = replayed.(i)
      in
      (* Prefixes of a run advanced by steps alone, taken from [run]. *)
      let points run =
        let ps =
          Array.init (len + 1) (fun i ->
              let p = Scheduler.prefix run in
              if i < len then ignore (Scheduler.step run schedule.(i) : Event.t);
              p)
        in
        ignore (Scheduler.finish run : Trace.t);
        ps
      in
      let live =
        points (Replay.replay session ~n:3 ~make_body ~schedule:[] ())
      in
      (* ... and of runs each restarted at the prefix before and stepped
         once. *)
      let chained = Array.make (len + 1) Scheduler.initial in
      for i = 0 to len - 1 do
        let run = Scheduler.restart session ~n:3 ~make_body chained.(i) in
        ignore (Scheduler.step run schedule.(i) : Event.t);
        chained.(i + 1) <- Scheduler.prefix run;
        ignore (Scheduler.finish run : Trace.t)
      done;
      let ok = ref true in
      for i = 0 to len do
        List.iter
          (fun p -> if not (equals_replay i p) then ok := false)
          [ live.(i); chained.(i) ]
      done;
      (* ... and of the session's latest run, opened by a restart:
         restarting at its prefixes, longest first, rewinds its trace
         each time, further back than the last. *)
      let latest =
        points (Scheduler.restart session ~n:3 ~make_body Scheduler.initial)
      in
      for i = len downto 0 do
        if not (equals_replay i latest.(i)) then ok := false
      done;
      (* Those rewinds cut the longest prefix off. *)
      if len > 0 then begin
        match Scheduler.restart session ~n:3 ~make_body latest.(len) with
        | run ->
          ignore (Scheduler.finish run : Trace.t);
          ok := false
        | exception Invalid_argument _ -> ()
      end;
      !ok)

(* A restart at a prefix whose entries a later rewind overwrote, or with
   fewer processes than have events in the prefix, is refused before it
   touches the store or opens a run. *)
let test_rewound_prefix_refused () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let make_body pid () =
    Session.write session a (Simval.Int (pid + 1));
    ignore (Session.read session a)
  in
  let run = Scheduler.restart session ~n:2 ~make_body Scheduler.initial in
  let root = Scheduler.prefix run in
  ignore (Scheduler.step run 0 : Event.t);
  ignore (Scheduler.step run 1 : Event.t);
  let deep = Scheduler.prefix run in
  ignore (Scheduler.finish run : Trace.t);
  let refused ?(n = 2) what =
    let before = Store.get (Session.store session) a in
    (match Scheduler.restart session ~n ~make_body deep with
     | _ -> Alcotest.failf "%s: the prefix was accepted" what
     | exception Invalid_argument _ -> ());
    Alcotest.(check bool) (what ^ ": store untouched") true
      (Simval.equal (Store.get (Session.store session) a) before)
  in
  refused ~n:1 "p1's events without p1";
  (* The restart at [root] rewinds the trace [deep] lies on; p1's two
     steps then overwrite [deep]'s two entries. *)
  let run = Scheduler.restart session ~n:2 ~make_body root in
  ignore (Scheduler.step run 1 : Event.t);
  ignore (Scheduler.step run 1 : Event.t);
  ignore (Scheduler.finish run : Trace.t);
  refused "overwritten";
  (* ... and a rewind that leaves fewer entries than [deep] has. *)
  ignore (Scheduler.finish (Scheduler.restart session ~n:2 ~make_body root)
          : Trace.t);
  refused "cut short";
  (* No run was left open. *)
  ignore (Scheduler.finish (Scheduler.restart session ~n:2 ~make_body root)
          : Trace.t)

(* A body that raises while a restart fast-forwards it ends the restarted
   run: here p0 fails whenever it is entered a second time. *)
let test_restart_failure_ends_run () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let entered = ref 0 in
  let make_body _ () =
    incr entered;
    Session.write session a (Simval.Int 1);
    if !entered > 1 then failwith "entered again";
    ignore (Session.read session a)
  in
  let run = Scheduler.restart session ~n:1 ~make_body Scheduler.initial in
  ignore (Scheduler.step run 0 : Event.t);
  let p = Scheduler.prefix run in
  ignore (Scheduler.finish run : Trace.t);
  (match Scheduler.restart session ~n:1 ~make_body p with
   | _ -> Alcotest.fail "the failing body went unnoticed"
   | exception Scheduler.Process_failure (0, Failure _) -> ());
  entered := 0;
  let run = Scheduler.restart session ~n:1 ~make_body Scheduler.initial in
  Alcotest.(check bool) "a new run starts" true (Scheduler.is_active run 0);
  ignore (Scheduler.finish run : Trace.t)

(* A run finishes once.  A second [finish] of a run whose session has
   run again since would close that session's open run, and name its
   own trace as the one the store holds, so that a restart at one of its
   prefixes would rewind from a store it does not describe.  And a
   finished run starts no body. *)
let test_finish_once () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let b = reg session "b" (Simval.Int 0) in
  let make_body pid () =
    Session.write session (if pid = 0 then a else b) (Simval.Int 1)
  in
  let first = Scheduler.restart session ~n:2 ~make_body Scheduler.initial in
  let root = Scheduler.prefix first in
  ignore (Scheduler.step first 0 : Event.t);
  ignore (Scheduler.finish first : Trace.t);
  let other = Scheduler.restart session ~n:2 ~make_body Scheduler.initial in
  ignore (Scheduler.step other 1 : Event.t);
  ignore (Scheduler.finish other : Trace.t);
  Alcotest.check_raises "second finish"
    (Invalid_argument "Scheduler.finish: the run has finished") (fun () ->
      ignore (Scheduler.finish first : Trace.t));
  let run = Scheduler.restart session ~n:2 ~make_body root in
  let value obj = Store.get (Session.store session) obj in
  Alcotest.(check bool) "the restart starts from the initial values" true
    (Simval.equal (value a) (Simval.Int 0)
     && Simval.equal (value b) (Simval.Int 0));
  ignore (Scheduler.finish run : Trace.t);
  (* Inspecting a finished run starts no body: p1, never started, would
     write b outside any run. *)
  Alcotest.(check bool) "p1 not enabled after finish" true
    (Scheduler.enabled run 1 = None);
  Alcotest.(check bool) "b untouched" true
    (Simval.equal (value b) (Simval.Int 0))

(* p0 writes y and then reads x; p1 writes x; p2 does nothing (three
   processes, as [observe] expects).  [mid] is the point after
   p0's write, so undoing the run from its end back to [mid] touches x
   only: y keeps [mid]'s value and z (no body touches it) its initial
   one only if the store was left as the run left it. *)
let store_scenario () =
  let session = Session.create () in
  let x = reg session "x" (Simval.Int 0) in
  let y = reg session "y" (Simval.Int 0) in
  let z = reg session "z" (Simval.Int 0) in
  let make_body pid () =
    if pid = 0 then begin
      Session.write session y (Simval.Int 5);
      ignore (Session.read session x)
    end
    else if pid = 1 then Session.write session x (Simval.Int 2)
  in
  (session, [ x; y; z ], make_body)

(* After a direct-mode write or a [Store.reset] the store no longer holds
   what the latest run left, so the next restart copies its prefix and
   rebuilds the store: it equals the replay, and the latest run's trace
   is not rewound (its longest prefix still restarts). *)
let test_changed_store_restarts_by_copy () =
  let session, objs, make_body = store_scenario () in
  let z = List.nth objs 2 in
  let replayed =
    observe session objs
      (Replay.replay session ~n:3 ~make_body ~schedule:[ 0 ] ())
      (Some 1)
  in
  List.iter
    (fun (what, change) ->
      let run = Scheduler.restart session ~n:3 ~make_body Scheduler.initial in
      ignore (Scheduler.step run 0 : Event.t);
      let mid = Scheduler.prefix run in
      ignore (Scheduler.step run 1 : Event.t);
      ignore (Scheduler.step run 0 : Event.t);
      let full = Scheduler.prefix run in
      ignore (Scheduler.finish run : Trace.t);
      change ();
      let restarted =
        observe session objs (Scheduler.restart session ~n:3 ~make_body mid)
          (Some 1)
      in
      Alcotest.(check bool) (what ^ ": restart equals the replay") true
        (restarted = replayed);
      ignore
        (Scheduler.finish (Scheduler.restart session ~n:3 ~make_body full)
          : Trace.t))
    [ ("direct write", fun () -> Session.write session z (Simval.Int 9));
      ("store reset", fun () -> Store.reset (Session.store session)) ]

(* A run opened by [Scheduler.create] starts wherever the store is; here
   y was written before it.  A restart at its prefix is never a rewind:
   it starts from the initial values plus the prefix, so y reads 0. *)
let test_created_run_not_rewound () =
  let session, objs, make_body = store_scenario () in
  let x = List.nth objs 0 and y = List.nth objs 1 in
  Session.write session y (Simval.Int 7);
  let run = Scheduler.create session in
  for pid = 0 to 1 do
    ignore (Scheduler.spawn run (make_body pid) : int)
  done;
  ignore (Scheduler.step run 1 : Event.t);
  let p = Scheduler.prefix run in
  ignore (Scheduler.step run 0 : Event.t);
  ignore (Scheduler.finish run : Trace.t);
  let run = Scheduler.restart session ~n:2 ~make_body p in
  let value obj = Store.get (Session.store session) obj in
  Alcotest.(check bool) "x holds the prefix's write" true
    (Simval.equal (value x) (Simval.Int 2));
  Alcotest.(check bool) "y holds its initial value" true
    (Simval.equal (value y) (Simval.Int 0));
  ignore (Scheduler.finish run : Trace.t)

(* A restart enters only the bodies that had not returned at its
   prefix: p0 returned after its one write, and is finished with its
   step counted but never entered; p1 is re-entered and fast-forwarded
   through its write to its read. *)
let test_restart_enters_unfinished_only () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let entered = Array.make 2 0 in
  let make_body pid () =
    entered.(pid) <- entered.(pid) + 1;
    Session.write session a (Simval.Int (pid + 1));
    if pid = 1 then ignore (Session.read session a)
  in
  let run = Replay.replay session ~n:2 ~make_body ~schedule:[ 0; 1 ] () in
  let p = Scheduler.prefix run in
  ignore (Scheduler.finish run : Trace.t);
  Array.fill entered 0 2 0;
  let run = Scheduler.restart session ~n:2 ~make_body p in
  Alcotest.(check (array int)) "bodies entered by the restart" [| 0; 1 |]
    entered;
  Alcotest.(check bool) "p0 finished" true (Scheduler.is_finished run 0);
  Alcotest.(check (list int)) "steps" [ 1; 1 ]
    (List.init 2 (Scheduler.steps_of run));
  Alcotest.(check bool) "p1 waits at its read" true
    (Scheduler.enabled run 1 = Some (a, Event.Read));
  Alcotest.(check bool) "store holds p1's write" true
    (Simval.equal (Store.get (Session.store session) a) (Simval.Int 2));
  ignore (Scheduler.step run 1 : Event.t);
  Alcotest.(check (array int)) "no body entered again" [| 0; 1 |] entered;
  ignore (Scheduler.finish run : Trace.t)

(* {1 Robustness / error paths} *)

(* A refused second run leaves the open run's store alone: [Replay.replay]
   and [Faults.explore] check the session before they reset it. *)
let test_refused_run_keeps_store () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let make_body _ () =
    Session.write session a (Simval.Int 7)
  in
  let sched = Scheduler.create session in
  ignore (Scheduler.spawn sched (make_body 0) : int);
  ignore (Scheduler.step sched 0 : Event.t);
  let reads_7 what =
    Alcotest.(check bool) (what ^ ": open run still reads a = 7") true
      (Simval.equal (Store.get (Session.store session) a) (Simval.Int 7))
  in
  reads_7 "before";
  List.iter
    (fun (what, start) ->
      (match start () with
       | () -> Alcotest.fail (what ^ ": second run accepted")
       | exception Invalid_argument _ -> ());
      reads_7 (what ^ " refused"))
    [ ("Replay.replay", fun () ->
          ignore (Replay.replay session ~n:1 ~make_body ~schedule:[ 0 ] ()));
      ("Faults.explore", fun () ->
          ignore
            (Faults.explore session ~n:1 ~make_body ~plan:[]
               ~on_complete:(fun _ -> true) ()));
      ("Liveness.solo_completion_bound", fun () ->
          ignore
            (Harness.Liveness.solo_completion_bound session ~n:1 ~make_body
               ()));
      ("Liveness.interference_bound", fun () ->
          ignore
            (Harness.Liveness.interference_bound session
               ~victim_body:(make_body 0) ~interferer_body:(make_body 1) ()));
      ("Liveness.completion_under_plan", fun () ->
          ignore
            (Harness.Liveness.completion_under_plan session ~n:1 ~make_body
               ~plan:[] ())) ];
  ignore (Scheduler.finish sched : Trace.t)

(* Every entry point that opens a run finishes it before a body's
   exception goes on: the session takes a new run afterwards. *)
let test_raising_body_ends_the_run () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let make_body pid () =
    Session.write session a (Simval.Int pid);
    if pid = 1 then failwith "p1 fails"
  in
  List.iter
    (fun (what, start) ->
      (match start () with
       | () -> Alcotest.failf "%s: the failing body went unnoticed" what
       | exception Scheduler.Process_failure (1, Failure _) -> ());
      match Scheduler.create session with
      | sched -> ignore (Scheduler.finish sched : Trace.t)
      | exception Invalid_argument _ ->
        Alcotest.failf "%s left its run open" what)
    [ ("Explore.run", fun () ->
          ignore
            (Explore.run session ~n:2 ~make_body ~on_complete:(fun _ -> true)
               ()));
      ("Replay.replay", fun () ->
          ignore (Replay.replay session ~n:2 ~make_body ~schedule:[ 0; 1 ] ()));
      ("Explore.solo_counts", fun () ->
          ignore (Explore.solo_counts session ~n:2 ~make_body));
      ("Shrink.counterexample", fun () ->
          ignore
            (Shrink.counterexample session ~n:2 ~make_body
               ~check:(fun _ -> false) [ 0; 1 ]));
      ("Liveness.solo_completion_bound", fun () ->
          ignore
            (Harness.Liveness.solo_completion_bound session ~n:2 ~make_body
               ()));
      ("Liveness.interference_bound", fun () ->
          ignore
            (Harness.Liveness.interference_bound session
               ~victim_body:(make_body 0) ~interferer_body:(make_body 1) ()));
      ("Liveness.completion_under_plan", fun () ->
          ignore
            (Harness.Liveness.completion_under_plan session ~n:2 ~make_body
               ~plan:[] ())) ]

let test_nested_run_rejected () =
  let session = Session.create () in
  let sched = Scheduler.create session in
  Alcotest.check_raises "second run rejected"
    (Invalid_argument
       "Scheduler.create: a run is already in progress on this session")
    (fun () -> ignore (Scheduler.create session));
  ignore (Scheduler.finish sched);
  (* after finish, a new run is fine *)
  let sched2 = Scheduler.create session in
  ignore (Scheduler.finish sched2)

let test_step_finished_process_rejected () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let sched = Scheduler.create session in
  let p =
    Scheduler.spawn sched (fun () ->
        ignore (Session.read session a))
  in
  Scheduler.run_solo sched p;
  Alcotest.check_raises "stepping a finished process"
    (Invalid_argument "Scheduler.step: process has finished") (fun () ->
      ignore (Scheduler.step sched p));
  ignore (Scheduler.finish sched)

let test_bad_pid_rejected () =
  let session = Session.create () in
  let sched = Scheduler.create session in
  Alcotest.check_raises "bad pid" (Invalid_argument "Scheduler: bad pid")
    (fun () -> ignore (Scheduler.enabled sched 42));
  ignore (Scheduler.finish sched)

let test_bad_object_rejected () =
  let store = Store.create () in
  Alcotest.check_raises "bad object id"
    (Invalid_argument "Store: bad object id") (fun () ->
      ignore (Store.get store 7))

let test_finish_unwinds_active_processes () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let sched = Scheduler.create session in
  let cleanup_ran = ref false in
  let p =
    Scheduler.spawn sched (fun () ->
        Fun.protect
          ~finally:(fun () -> cleanup_ran := true)
          (fun () ->
            ignore (Session.read session a);
            ignore (Session.read session a)))
  in
  ignore (Scheduler.step sched p);
  ignore (Scheduler.finish sched);
  (* the pending continuation was discontinued, running finalizers *)
  Alcotest.(check bool) "finalizer ran on unwind" true !cleanup_ran

let test_trace_pp_smoke () =
  let session = Session.create () in
  let a = reg session "a" (Simval.Int 0) in
  let sched = Scheduler.create session in
  let p =
    Scheduler.spawn sched (fun () ->
        Session.annotate_invoke session ~op:"op" ~arg:(Simval.Int 1);
        Session.write session a (Simval.Vec [| Simval.Int 1; Simval.Bot |]);
        ignore (Session.cas session a ~expected:(Simval.Bot) ~desired:(Simval.Int 2));
        Session.annotate_return session ~op:"op" ~result:Simval.Bot)
  in
  Scheduler.run_solo sched p;
  let trace = Scheduler.finish sched in
  let rendered = Fmt.str "%a" Trace.pp trace in
  Alcotest.(check bool) "pretty-printer produces output" true
    (String.length rendered > 20)

(* {1 Simval} *)

let test_simval_order () =
  let open Simval in
  Alcotest.(check bool) "bot smallest" true (compare_val Bot (Int (-100)) < 0);
  Alcotest.(check bool) "ints ordered" true (compare_val (Int 1) (Int 2) < 0);
  Alcotest.(check bool) "max" true (equal (max_val (Int 3) (Int 5)) (Int 5));
  Alcotest.(check bool) "max with bot" true (equal (max_val Bot (Int 0)) (Int 0));
  Alcotest.(check bool) "vec equal" true
    (equal (Vec [| Int 1; Bot |]) (Vec [| Int 1; Bot |]));
  Alcotest.(check bool) "vec not equal" false
    (equal (Vec [| Int 1 |]) (Vec [| Int 1; Int 2 |]))

let simval_gen =
  let open QCheck in
  let leaf = Gen.oneof [ Gen.return Simval.Bot; Gen.map (fun i -> Simval.Int i) Gen.small_int ] in
  let rec tree depth =
    if depth = 0 then leaf
    else
      Gen.oneof
        [ leaf;
          Gen.map (fun l -> Simval.Vec (Array.of_list l))
            (Gen.list_size (Gen.int_range 0 3) (tree (depth - 1))) ]
  in
  make ~print:Simval.to_string (tree 3)

let prop_equal_reflexive =
  QCheck.Test.make ~name:"simval equal is reflexive" ~count:200 simval_gen
    (fun v -> Simval.equal v v)

let prop_compare_antisym =
  QCheck.Test.make ~name:"simval compare antisymmetric" ~count:200
    (QCheck.pair simval_gen simval_gen) (fun (a, b) ->
      Simval.compare_val a b = -Simval.compare_val b a)

let prop_max_is_upper_bound =
  QCheck.Test.make ~name:"max_val is an upper bound" ~count:200
    (QCheck.pair simval_gen simval_gen) (fun (a, b) ->
      let m = Simval.max_val a b in
      Simval.compare_val m a >= 0 && Simval.compare_val m b >= 0)

let () =
  Alcotest.run "memsim"
    [ ( "store",
        [ Alcotest.test_case "basic" `Quick test_store_basic;
          Alcotest.test_case "apply" `Quick test_store_apply;
          Alcotest.test_case "would_change" `Quick test_store_would_change;
          Alcotest.test_case "reset" `Quick test_store_reset ] );
      ( "direct",
        [ Alcotest.test_case "counts steps" `Quick test_direct_mode_counts_steps ] );
      ( "scheduler",
        [ Alcotest.test_case "round robin" `Quick test_round_robin_interleaves;
          Alcotest.test_case "solo" `Quick test_solo_runs_to_completion;
          Alcotest.test_case "peek is free" `Quick test_enabled_peek_is_not_a_step;
          Alcotest.test_case "cas interleaving" `Quick test_scheduler_controls_cas_interleaving;
          Alcotest.test_case "erase live" `Quick test_erase_live;
          Alcotest.test_case "annotations" `Quick test_annotations_recorded;
          Alcotest.test_case "process failure" `Quick test_process_exception_propagates ] );
      ( "replay",
        [ Alcotest.test_case "reproduces" `Quick test_replay_reproduces_execution;
          Alcotest.test_case "erasure" `Quick test_replay_with_erasure;
          Alcotest.test_case "detects divergence" `Quick test_replay_detects_divergence;
          QCheck_alcotest.to_alcotest prop_restart_equals_replay;
          Alcotest.test_case "restart enters unfinished bodies only" `Quick
            test_restart_enters_unfinished_only;
          Alcotest.test_case "a rewound prefix is refused" `Quick
            test_rewound_prefix_refused;
          Alcotest.test_case "a changed store restarts by copy" `Quick
            test_changed_store_restarts_by_copy;
          Alcotest.test_case "a created run is never rewound" `Quick
            test_created_run_not_rewound;
          Alcotest.test_case "a body failing in fast-forward ends the run"
            `Quick test_restart_failure_ends_run;
          Alcotest.test_case "a run finishes once" `Quick test_finish_once ] );
      ( "robustness",
        [ Alcotest.test_case "nested run" `Quick test_nested_run_rejected;
          Alcotest.test_case "refused run keeps the store" `Quick
            test_refused_run_keeps_store;
          Alcotest.test_case "a raising body ends the run" `Quick
            test_raising_body_ends_the_run;
          Alcotest.test_case "step finished" `Quick test_step_finished_process_rejected;
          Alcotest.test_case "bad pid" `Quick test_bad_pid_rejected;
          Alcotest.test_case "bad object" `Quick test_bad_object_rejected;
          Alcotest.test_case "finish unwinds" `Quick test_finish_unwinds_active_processes;
          Alcotest.test_case "trace pp" `Quick test_trace_pp_smoke ] );
      ( "simval",
        Alcotest.test_case "order" `Quick test_simval_order
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_equal_reflexive; prop_compare_antisym; prop_max_is_upper_bound ] ) ]
