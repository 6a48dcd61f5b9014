(* Dynamic partial-order reduction: correctness of the engine itself
   (agreement with the naive enumerator, no duplicate traces, pruning), and
   the DPOR-powered exhaustive model-checking suites that the naive
   explorer cannot finish — Algorithm A, the CAS-loop register, the f-array
   counter and the single-writer f-array snapshot at n = 3. *)

open Memsim

(* {1 Helpers} *)

let dpor_explore ?max_schedules ?max_events ~session ~n ~make_body ~check () =
  let failures = ref 0 in
  let stats =
    Dpor.run ?max_schedules ?max_events session ~n ~make_body
      ~on_complete:(fun trace ->
        if not (check trace) then incr failures;
        true)
      ()
  in
  (stats, !failures)

let naive_explore ~session ~n ~make_body ~check () =
  let failures = ref 0 in
  let stats =
    Explore.run session ~n ~make_body
      ~on_complete:(fun trace ->
        if not (check trace) then incr failures;
        true)
      ()
  in
  (stats, !failures)

let lin_maxreg ~n =
  Linearize.Checker.check_trace (module Linearize.Spec.Max_register) ~n

let lin_counter ~n =
  Linearize.Checker.check_trace (module Linearize.Spec.Counter) ~n

let lin_snapshot ~n =
  Linearize.Checker.check_trace (module Linearize.Spec.Snapshot) ~n

(* {1 Engine basics} *)

(* Two processes on disjoint objects: every interleaving is equivalent, so
   DPOR must visit exactly one schedule where the naive explorer visits
   C(4,2) = 6. *)
let test_disjoint_collapses () =
  let session = Session.create () in
  let a = Session.alloc session ~name:"a" (Simval.Int 0) in
  let b = Session.alloc session ~name:"b" (Simval.Int 0) in
  let make_body pid () =
    let obj = if pid = 0 then a else b in
    ignore (Session.read session obj);
    Session.write session obj (Simval.Int pid)
  in
  let dstats, _ =
    dpor_explore ~session ~n:2 ~make_body ~check:(fun _ -> true) ()
  in
  let nstats, _ =
    naive_explore ~session ~n:2 ~make_body ~check:(fun _ -> true) ()
  in
  Alcotest.(check int) "naive visits all 6 interleavings" 6 nstats.Explore.explored;
  Alcotest.(check int) "dpor visits exactly 1" 1 dstats.Dpor.explored;
  Alcotest.(check bool) "not truncated" false dstats.Dpor.truncated

(* Two conflicting writes: both orders are inequivalent and must both be
   visited. *)
let test_conflict_keeps_both_orders () =
  let session = Session.create () in
  let a = Session.alloc session ~name:"a" (Simval.Int 0) in
  let make_body pid () =
    Session.write session a (Simval.Int pid)
  in
  let dstats, _ =
    dpor_explore ~session ~n:2 ~make_body ~check:(fun _ -> true) ()
  in
  Alcotest.(check int) "both orders" 2 dstats.Dpor.explored

(* Sleep sets guarantee no complete schedule is delivered twice. *)
let test_no_duplicate_schedules () =
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
  let seen = Hashtbl.create 64 in
  let dups = ref 0 in
  ignore
    (Dpor.run session ~n:3 ~make_body
       ~on_complete:(fun trace ->
         let s = Trace.schedule trace in
         if Hashtbl.mem seen s then incr dups else Hashtbl.add seen s ();
         true)
       ());
  Alcotest.(check int) "no schedule delivered twice" 0 !dups

(* {1 Equivalence with the naive explorer (qcheck)} *)

(* Random straight-line programs: 3 processes, up to 4 events each, over 2
   shared objects.  DPOR visits a subset of the naive explorer's schedules
   but must reach exactly the same set of final store states. *)

type op = { kind : int; obj : int; a : int; b : int }

let prim_of_op op =
  match op.kind with
  | 0 -> Event.Read
  | 1 -> Event.Write (Simval.Int op.a)
  | _ ->
    Event.Cas { expected = Simval.Int op.a; desired = Simval.Int op.b }

(* [op] as one step on [obj]. *)
let perform session obj op =
  match op.kind with
  | 0 -> ignore (Session.read session obj)
  | 1 -> Session.write session obj (Simval.Int op.a)
  | _ ->
    ignore
      (Session.cas session obj ~expected:(Simval.Int op.a)
         ~desired:(Simval.Int op.b))

let pp_op op =
  Fmt.str "%a@o%d" Event.pp_prim (prim_of_op op) op.obj

let op_gen =
  QCheck.Gen.(
    map
      (fun (kind, obj, (a, b)) -> { kind; obj; a; b })
      (triple (int_range 0 2) (int_range 0 1)
         (pair (int_range 0 2) (int_range 0 2))))

let progs_gen =
  QCheck.Gen.(
    array_size (return 3) (list_size (int_range 0 4) op_gen))

let print_progs pp progs =
  String.concat " | "
    (Array.to_list
       (Array.map (fun p -> String.concat ";" (List.map pp p)) progs))

let progs_arb = QCheck.make ~print:(print_progs pp_op) progs_gen

let final_states explorer ~session ~objs ~n ~make_body =
  let store = Session.store session in
  let states = Hashtbl.create 64 in
  let count = ref 0 in
  explorer session ~n ~make_body ~on_complete:(fun _ ->
      incr count;
      let key = List.map (fun o -> Store.get store o) objs in
      if not (Hashtbl.mem states key) then Hashtbl.add states key ();
      true);
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) states [] in
  (List.sort compare keys, !count)

let prop_same_final_states =
  QCheck.Test.make ~name:"dpor and naive reach the same final store states"
    ~count:60 progs_arb (fun progs ->
      let session = Session.create () in
      let o0 = Session.alloc session ~name:"x" (Simval.Int 0) in
      let o1 = Session.alloc session ~name:"y" (Simval.Int 0) in
      let objs = [ o0; o1 ] in
      let make_body pid () =
        List.iter
          (fun op ->
            perform session (if op.obj = 0 then o0 else o1) op)
          progs.(pid)
      in
      let naive_states, naive_count =
        final_states
          (fun s ~n ~make_body ~on_complete ->
            ignore (Explore.run s ~n ~make_body ~on_complete ()))
          ~session ~objs ~n:3 ~make_body
      in
      let dpor_states, dpor_count =
        final_states
          (fun s ~n ~make_body ~on_complete ->
            ignore (Dpor.run s ~n ~make_body ~on_complete ()))
          ~session ~objs ~n:3 ~make_body
      in
      naive_states = dpor_states && dpor_count <= naive_count)

(* {1 Replay oracle (qcheck)}

   DPOR and the naive explorer hand a node's open run to its first child
   and restart a later sibling from the node's recorded trace, instead of
   replaying either child's prefix.  Every delivered trace must still
   equal, entry for entry, a fresh replay of its own schedule followed by
   one inspection of every process, which is what replaying at every node
   delivers.  The programs add a fourth kind of operation, [nop]: an
   annotated operation that issues no event.  Its annotations are
   recorded as soon as its process starts, so it is the case where an
   inspection changes the open run's trace. *)

let nop = 3

let pp_annotated op = if op.kind = nop then "nop" else pp_op op

let annotated_progs_arb =
  QCheck.make ~print:(print_progs pp_annotated)
    QCheck.Gen.(
      array_size (return 3)
        (list_size (int_range 0 4)
           (map
              (fun (kind, obj, (a, b)) -> { kind; obj; a; b })
              (triple (int_range 0 nop) (int_range 0 1)
                 (pair (int_range 0 2) (int_range 0 2))))))

(* Every operation is annotated, so invocations are buffered across
   inspections too. *)
let annotated_scenario progs =
  let session = Session.create () in
  let o0 = Session.alloc session ~name:"x" (Simval.Int 0) in
  let o1 = Session.alloc session ~name:"y" (Simval.Int 0) in
  let make_body pid () =
    List.iter
      (fun op ->
        let name = pp_annotated op in
        Session.annotate_invoke session ~op:name ~arg:(Simval.Int op.a);
        if op.kind <> nop then
          perform session (if op.obj = 0 then o0 else o1) op;
        Session.annotate_return session ~op:name ~result:Simval.Bot)
      progs.(pid)
  in
  (session, make_body)

(* The explorers the oracle checks, as functions of the session, the
   bodies and the callback. *)
let explorers =
  [ ("Dpor.run", fun session ~make_body ~on_complete ->
        ignore (Dpor.run session ~n:3 ~make_body ~on_complete ()));
    ("Explore.run", fun session ~make_body ~on_complete ->
        ignore (Explore.run session ~n:3 ~make_body ~on_complete ())) ]

(* The number of traces [explore] delivers that differ from the replay of
   their own schedule, for bodies wrapped by [Faults.instrument plan]. *)
let replay_mismatches ?(plan = []) explore progs =
  let session, make_body = annotated_scenario progs in
  let make_body = Faults.instrument plan make_body in
  let mismatches = ref 0 in
  explore session ~make_body ~on_complete:(fun trace ->
      let sched =
        Replay.replay session ~n:3 ~make_body
          ~schedule:(Trace.schedule trace) ()
      in
      ignore (Scheduler.active_pids sched);
      let replayed = Scheduler.finish sched in
      if Trace.entries replayed <> Trace.entries trace then incr mismatches;
      true);
  !mismatches

(* Half the programs run under one program fault.  [Faults.instrument]
   forwards each operation through its own handler, which counts the
   process's events to crash it or turns a CAS into a read; a restarted
   process must present every fast-forwarded operation to that handler
   too. *)
let no_fault_or_one =
  QCheck.make ~print:Faults.to_string
    QCheck.Gen.(
      frequency
        [ (2, return []);
          (1, map2 (fun pid after -> [ Faults.Crash { pid; after } ])
                (int_range 0 2) (int_range 0 3));
          (1, map2 (fun pid nth -> [ Faults.Cas_fail { pid; nth } ])
                (int_range 0 2) (int_range 1 4)) ])

let prop_replay_oracle =
  QCheck.Test.make ~name:"every delivered trace equals its schedule's replay"
    ~count:400
    (QCheck.pair annotated_progs_arb no_fault_or_one)
    (fun (progs, plan) ->
      List.for_all
        (fun (_, explore) -> replay_mismatches ~plan explore progs = 0)
        explorers)

let mk kind obj = { kind; obj; a = 1; b = 0 }

(* p0 = write x; read y | p1 = nop; write x | p2 = read x.  Inspecting
   the root starts p1, whose nop records its annotations there: a run
   handed down from the root would hold them before p0's write. *)
let fixed_progs = [| [ mk 1 0; mk 0 1 ]; [ mk nop 0; mk 1 0 ]; [ mk 0 0 ] |]

let test_replay_oracle_fixed () =
  List.iter
    (fun (name, explore) ->
      Alcotest.(check int) (name ^ ": traces differing from their replay") 0
        (replay_mismatches explore fixed_progs))
    explorers

(* Every way out of an exploration ends its run: a second exploration on
   the same session starts and delivers every execution.  The three
   explorers share one walk, and each is stopped by every limit. *)
let test_run_lifecycle () =
  let session, make_body = annotated_scenario fixed_progs in
  let stoppable =
    [ ("Dpor.run", 6, fun ?max_schedules ?max_events on_complete ->
          (Dpor.run ?max_schedules ?max_events session ~n:3 ~make_body
             ~on_complete ())
            .Dpor.explored);
      ("Explore.run", 12, fun ?max_schedules ?max_events on_complete ->
          (Explore.run ?max_schedules ?max_events session ~n:3 ~make_body
             ~on_complete ())
            .Explore.explored);
      ("Faults.explore", 12, fun ?max_schedules ?max_events on_complete ->
          (Faults.explore ?max_schedules ?max_events session ~n:3 ~make_body
             ~plan:[] ~on_complete ())
            .Explore.explored) ]
  in
  List.iter
    (fun (name, executions,
          (explore :
            ?max_schedules:int -> ?max_events:int -> (Trace.t -> bool) -> int)) ->
      let full () = explore (fun _ -> true) in
      Alcotest.(check int) (name ^ ": executions") executions (full ());
      List.iter
        (fun (how, stop) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s stopped early" name how)
            true
            (stop () < executions);
          Alcotest.(check int)
            (Printf.sprintf "%s: executions after a stop by %s" name how)
            executions (full ()))
        [ ("max_schedules", fun () -> explore ~max_schedules:1 (fun _ -> true));
          ("max_events", fun () -> explore ~max_events:1 (fun _ -> true));
          ("on_complete", fun () -> explore (fun _ -> false)) ])
    stoppable

(* A body that raises ends the exploration with [Process_failure] and
   leaves no run open: the session takes another exploration and a
   replay. *)
let test_raising_body_ends_the_run () =
  let session = Session.create () in
  let a = Session.alloc session ~name:"a" (Simval.Int 0) in
  let quiet pid () = Session.write session a (Simval.Int pid) in
  let raising pid () =
    quiet pid ();
    if pid = 1 then failwith "p1 fails"
  in
  (match
     Dpor.run session ~n:2 ~make_body:raising ~on_complete:(fun _ -> true) ()
   with
   | _ -> Alcotest.fail "the failing body went unnoticed"
   | exception Scheduler.Process_failure (1, Failure _) -> ());
  Alcotest.(check int) "classes of a second exploration" 2
    (Dpor.run session ~n:2 ~make_body:quiet ~on_complete:(fun _ -> true) ())
      .Dpor.explored;
  let run = Replay.replay session ~n:2 ~make_body:quiet ~schedule:[ 1; 0 ] () in
  Alcotest.(check int) "events replayed" 2 (Scheduler.event_count run);
  ignore (Scheduler.finish run : Trace.t)

(* [max_events] bounds the depth of a schedule; [max_int] bounds
   nothing, so it explores exactly what the default does here. *)
let test_unbounded_depth () =
  let session, make_body = annotated_scenario fixed_progs in
  let classes ?max_events () =
    (Dpor.run ?max_events session ~n:3 ~make_body
       ~on_complete:(fun _ -> true) ())
      .Dpor.explored
  in
  Alcotest.(check int) "classes with max_events = max_int" (classes ())
    (classes ~max_events:max_int ())

(* A max register whose failed CAS silently drops the value (no retry):
   the canonical injected bug.  Used both for verdict agreement and for
   the shrinker tests below. *)
let buggy_maxreg session : Maxreg.Max_register.instance =
  let r = Session.alloc session ~name:"buggy" (Simval.Int 0) in
  { read_max =
      (fun () -> Simval.int_or ~default:0 (Session.read session r));
    write_max =
      (fun ~pid:_ v ->
        let cur = Session.read session r in
        if v > Simval.int_or ~default:0 cur then
          (* one CAS attempt; on failure the value is lost *)
          ignore
            (Session.cas session r ~expected:cur ~desired:(Simval.Int v))) }

let buggy_scenario () =
  let session = Session.create () in
  let reg = Harness.Annotate.max_register session (buggy_maxreg session) in
  let make_body pid () =
    match pid with
    | 0 -> reg.write_max ~pid 5
    | 1 -> reg.write_max ~pid 2
    | _ -> ignore (reg.read_max ())
  in
  (session, make_body)

(* On a buggy implementation both explorers must agree that a violation
   exists: if DPOR's pruning ever discarded the only violating trace
   class, this test would catch it. *)
let test_verdicts_agree_on_buggy () =
  let session, make_body = buggy_scenario () in
  let nstats, naive_failures =
    naive_explore ~session ~n:3 ~make_body ~check:(lin_maxreg ~n:3) ()
  in
  let dstats, dpor_failures =
    dpor_explore ~session ~n:3 ~make_body ~check:(lin_maxreg ~n:3) ()
  in
  Alcotest.(check bool) "neither truncated" false
    (nstats.Explore.truncated || dstats.Dpor.truncated);
  Alcotest.(check bool) "naive finds the bug" true (naive_failures > 0);
  Alcotest.(check bool) "dpor finds the bug" true (dpor_failures > 0)

(* The single-refresh Propagate ablation (A2): DPOR must also find the
   lost-update interleaving the naive enumeration finds. *)
let test_dpor_finds_single_refresh_bug () =
  let session = Session.create () in
  let module F = Boxed.Farray in
  let sum a b =
    Simval.Int (Simval.int_or ~default:0 a + Simval.int_or ~default:0 b)
  in
  let t =
    Boxed.Raw.with_memory (Smem.Sim_memory.bind session) (fun () ->
        F.create ~refreshes:1 ~n:2 ~combine:sum ())
  in
  let make_body pid () =
    let c = Simval.int_or ~default:0 (F.read_leaf t pid) in
    F.update t ~leaf:pid (Simval.Int (c + 1))
  in
  let lost = ref 0 in
  ignore
    (Dpor.run session ~n:2 ~make_body
       ~on_complete:(fun _ ->
         if Simval.int_or ~default:0 (F.read t) <> 2 then incr lost;
         true)
       ());
  Alcotest.(check bool) "dpor finds the lost update" true (!lost > 0)

(* {1 Acceptance: Algorithm A pruning ratio} *)

(* The 3-process Algorithm A write/read scenario: same verdict as the
   naive explorer, with >= 10x fewer complete schedules. *)
let test_algorithm_a_pruning_ratio () =
  let session = Session.create () in
  let reg =
    Harness.Annotate.max_register session
      (Harness.Instances.maxreg_sim session ~n:3 ~bound:8
         Harness.Instances.Algorithm_a)
  in
  let make_body pid () =
    if pid = 0 then reg.write_max ~pid 5 else ignore (reg.read_max ())
  in
  let nstats, naive_failures =
    naive_explore ~session ~n:3 ~make_body ~check:(lin_maxreg ~n:3) ()
  in
  let dstats, dpor_failures =
    dpor_explore ~session ~n:3 ~make_body ~check:(lin_maxreg ~n:3) ()
  in
  Alcotest.(check bool) "neither truncated" false
    (nstats.Explore.truncated || dstats.Dpor.truncated);
  Alcotest.(check int) "naive verdict: linearizable" 0 naive_failures;
  Alcotest.(check int) "dpor verdict: linearizable" 0 dpor_failures;
  Alcotest.(check int) "naive schedules" 756 nstats.Explore.explored;
  Alcotest.(check bool)
    (Printf.sprintf "dpor %d <= naive %d / 10" dstats.Dpor.explored
       nstats.Explore.explored)
    true
    (dstats.Dpor.explored * 10 <= nstats.Explore.explored)

(* {1 Pinned schedule counts}

   These pins document the pruning ratio on two canonical scenarios.  The
   counts are deterministic (exploration order is fixed); if a change to
   the DPOR engine, the scheduler, or an implementation shifts them, update
   the pin TOGETHER WITH A COMMENT in the diff explaining why the new count
   is correct (e.g. a sharper independence relation lowering it, an extra
   event in the implementation raising it).  An unexplained increase means
   lost pruning; an unexplained decrease means lost coverage. *)

let test_pinned_counts_algorithm_a () =
  let session = Session.create () in
  let reg =
    Harness.Annotate.max_register session
      (Harness.Instances.maxreg_sim session ~n:3 ~bound:8
         Harness.Instances.Algorithm_a)
  in
  let make_body pid () =
    if pid = 0 then reg.write_max ~pid 5 else ignore (reg.read_max ())
  in
  let dstats, _ =
    dpor_explore ~session ~n:3 ~make_body ~check:(fun _ -> true) ()
  in
  (* 1 writer (26 events) + 2 O(1) readers: the readers race only with the
     root CASes of Propagate, so 756 naive interleavings collapse to 9
     trace classes. *)
  Alcotest.(check int) "algorithm A w+r+r classes" 9 dstats.Dpor.explored

let test_pinned_counts_cas_maxreg () =
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
  let dstats, _ =
    dpor_explore ~session ~n:3 ~make_body ~check:(fun _ -> true) ()
  in
  (* Every event of the CAS loop touches the single register, so almost
     nothing commutes: 35 naive schedules (retries included) only collapse
     to 12 — documenting that DPOR pays off on tree algorithms, not on
     single-hot-spot ones. *)
  Alcotest.(check int) "cas-loop w+w+r classes" 12 dstats.Dpor.explored

(* {1 DPOR-powered exhaustive suites (n = 3)}

   Model checking that the naive explorer cannot finish: every trace class
   DPOR reaches in each scenario is visited and checked linearizable (the
   engine misses some classes of programs over several objects, see
   dpor.ml). *)

(* The exploration fingerprint of a scenario: its class count, the paths
   its sleep sets cut off, and the events of every delivered trace.
   Exploring other nodes, in another order or with other sleep sets,
   moves at least one of them.  The same rule as the pins above applies
   to updating them. *)
let pin_fingerprint (stats : Dpor.stats) delivered ~classes ~sleep_blocked
    ~events =
  Alcotest.(check int) "classes" classes stats.explored;
  Alcotest.(check int) "sleep-blocked paths" sleep_blocked stats.sleep_blocked;
  Alcotest.(check int) "events in delivered traces" events delivered

let test_algorithm_a_n3_exhaustive () =
  let session = Session.create () in
  let reg =
    Harness.Annotate.max_register session
      (Harness.Instances.maxreg_sim session ~n:3 ~bound:4
         Harness.Instances.Algorithm_a)
  in
  let make_body pid () =
    match pid with
    | 0 -> reg.write_max ~pid 1
    | 1 -> reg.write_max ~pid 3
    | _ -> ignore (reg.read_max ())
  in
  (* Theorem 5 (linearizability) and the step-bound half of Theorem 6
     (wait-freedom) checked over every trace class DPOR reaches:
     linearizable, and no process exceeds a fixed step bound. *)
  let max_steps = ref 0 and events = ref 0 in
  let check trace =
    List.iter
      (fun pid -> max_steps := max !max_steps (Trace.step_count trace pid))
      (Trace.pids trace);
    events := !events + Array.length (Trace.events trace);
    lin_maxreg ~n:3 trace
  in
  let dstats, failures = dpor_explore ~session ~n:3 ~make_body ~check () in
  Alcotest.(check bool) "not truncated" false dstats.Dpor.truncated;
  Alcotest.(check bool)
    (Printf.sprintf "real coverage (%d classes)" dstats.Dpor.explored)
    true
    (dstats.Dpor.explored >= 500);
  pin_fingerprint dstats !events ~classes:784 ~sleep_blocked:70
    ~events:35_280;
  Alcotest.(check int) "all linearizable (theorem 5 at n=3)" 0 failures;
  Alcotest.(check bool)
    (Printf.sprintf "wait-free step bound holds everywhere (max %d)"
       !max_steps)
    true
    (!max_steps <= 64)

let test_cas_maxreg_n3_exhaustive () =
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
  let dstats, failures =
    dpor_explore ~session ~n:3 ~make_body ~check:(lin_maxreg ~n:3) ()
  in
  Alcotest.(check bool) "not truncated" false dstats.Dpor.truncated;
  Alcotest.(check int) "all linearizable" 0 failures

let test_farray_counter_n3_exhaustive () =
  let session = Session.create () in
  let c =
    Harness.Annotate.counter session
      (Harness.Instances.counter_sim session ~n:3 ~bound:8
         Harness.Instances.Farray_counter)
  in
  let make_body pid () =
    if pid < 2 then c.increment ~pid else ignore (c.read ())
  in
  let events = ref 0 in
  let check trace =
    events := !events + Array.length (Trace.events trace);
    lin_counter ~n:3 trace
  in
  let dstats, failures = dpor_explore ~session ~n:3 ~make_body ~check () in
  Alcotest.(check bool) "not truncated" false dstats.Dpor.truncated;
  Alcotest.(check bool)
    (Printf.sprintf "real coverage (%d classes)" dstats.Dpor.explored)
    true
    (dstats.Dpor.explored >= 10_000);
  pin_fingerprint dstats !events ~classes:32_336 ~sleep_blocked:2_723
    ~events:1_196_432;
  Alcotest.(check int) "all linearizable" 0 failures

let test_farray_snapshot_n3_exhaustive () =
  let session = Session.create () in
  let s =
    Harness.Annotate.snapshot session
      (Harness.Instances.snapshot_sim session ~n:3
         Harness.Instances.Farray_snapshot)
  in
  let make_body pid () =
    if pid < 2 then s.update ~pid (pid + 5) else ignore (s.scan ())
  in
  let dstats, failures =
    dpor_explore ~session ~n:3 ~make_body ~check:(lin_snapshot ~n:3) ()
  in
  Alcotest.(check bool) "not truncated" false dstats.Dpor.truncated;
  Alcotest.(check bool)
    (Printf.sprintf "real coverage (%d classes)" dstats.Dpor.explored)
    true
    (dstats.Dpor.explored >= 10_000);
  Alcotest.(check int) "all linearizable" 0 failures

(* Corollary 1's counters over each snapshot: p0 increments twice, p1
   reads.  A restart re-runs an unfinished increment from its start, so
   the count must come from the caller's own segment, not from OCaml
   state that the first run already advanced. *)
let test_snapshot_counters_n2 () =
  List.iter
    (fun impl ->
      let session = Session.create () in
      let c =
        Harness.Annotate.counter session
          (Harness.Instances.counter_sim session ~n:2 ~bound:4
             (Harness.Instances.Snapshot_counter impl))
      in
      let make_body pid () =
        if pid = 0 then begin
          c.increment ~pid;
          c.increment ~pid
        end
        else ignore (c.read ())
      in
      let dstats, failures =
        dpor_explore ~session ~n:2 ~make_body ~check:(lin_counter ~n:2) ()
      in
      let name = Harness.Instances.snapshot_name impl in
      Alcotest.(check bool) (name ^ ": not truncated") false
        dstats.Dpor.truncated;
      Alcotest.(check bool) (name ^ ": several classes") true
        (dstats.Dpor.explored > 1);
      Alcotest.(check int) (name ^ ": all linearizable") 0 failures)
    Harness.Instances.all_snapshots

(* {1 Shrinking} *)

let test_minimize_synthetic () =
  (* the "bug" needs a 1 before a 3: minimize must strip everything else *)
  let rec has_1_then_3 = function
    | [] -> false
    | 1 :: rest -> List.mem 3 rest
    | _ :: rest -> has_1_then_3 rest
  in
  let minimal =
    Shrink.minimize ~test:has_1_then_3 [ 0; 2; 1; 0; 2; 3; 1; 3; 0 ]
  in
  Alcotest.(check (list int)) "minimal witness" [ 1; 3 ] minimal

let test_minimize_rejects_passing_schedule () =
  Alcotest.check_raises "initial schedule must satisfy test"
    (Invalid_argument "Shrink.minimize: the initial schedule does not satisfy test")
    (fun () -> ignore (Shrink.minimize ~test:(fun _ -> false) [ 0; 1 ]))

(* The injected-bug register must shrink to a tiny, still-violating,
   1-minimal repro. *)
let test_shrink_buggy_maxreg () =
  let session, make_body = buggy_scenario () in
  let check = lin_maxreg ~n:3 in
  (* find a violating schedule exhaustively (deterministic) *)
  let violating = ref None in
  ignore
    (Dpor.run session ~n:3 ~make_body
       ~on_complete:(fun trace ->
         if check trace then true
         else begin
           violating := Some (Trace.schedule trace);
           false
         end)
       ());
  match !violating with
  | None -> Alcotest.fail "expected the buggy register to violate"
  | Some schedule ->
    let minimal, min_trace =
      Shrink.counterexample session ~n:3 ~make_body ~check schedule
    in
    Alcotest.(check bool) "still a violation" false (check min_trace);
    Alcotest.(check bool)
      (Printf.sprintf "shrunk to %d events" (List.length minimal))
      true
      (List.length minimal <= 6);
    (* 1-minimality: dropping any single event loses the violation *)
    List.iteri
      (fun i _ ->
        let cand =
          List.filteri (fun j _ -> j <> i) minimal
        in
        let trace = Shrink.replay session ~n:3 ~make_body cand in
        Alcotest.(check bool)
          (Printf.sprintf "dropping event %d loses the violation" i)
          true (check trace))
      minimal

(* A long random violating run through the stress-tool path also shrinks
   to the same tiny repro. *)
let test_shrink_from_random_run () =
  let session, make_body = buggy_scenario () in
  let check = lin_maxreg ~n:3 in
  let rec find_violating seed =
    if seed > 500 then Alcotest.fail "no violating random schedule found"
    else begin
      Store.reset (Session.store session);
      let sched = Scheduler.create session in
      for pid = 0 to 2 do
        ignore (Scheduler.spawn sched (make_body pid))
      done;
      Faults.run_random ~seed ~max_events:10_000 sched (Faults.gate []);
      let trace = Scheduler.finish sched in
      if check trace then find_violating (seed + 1) else trace
    end
  in
  let trace = find_violating 1 in
  let minimal, min_trace =
    Shrink.counterexample session ~n:3 ~make_body ~check
      (Trace.schedule trace)
  in
  Alcotest.(check bool) "still a violation" false (check min_trace);
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to %d events" (List.length minimal))
    true
    (List.length minimal <= 6)

let () =
  Alcotest.run "dpor"
    [ ( "engine",
        [ Alcotest.test_case "disjoint objects collapse to one trace" `Quick
            test_disjoint_collapses;
          Alcotest.test_case "conflicting writes keep both orders" `Quick
            test_conflict_keeps_both_orders;
          Alcotest.test_case "no duplicate schedules (sleep sets)" `Quick
            test_no_duplicate_schedules;
          QCheck_alcotest.to_alcotest prop_same_final_states;
          Alcotest.test_case "verdicts agree on an injected bug" `Quick
            test_verdicts_agree_on_buggy;
          Alcotest.test_case "finds the single-refresh lost update (A2)"
            `Quick test_dpor_finds_single_refresh_bug;
          QCheck_alcotest.to_alcotest prop_replay_oracle;
          Alcotest.test_case "a zero-event first op replays exactly" `Quick
            test_replay_oracle_fixed;
          Alcotest.test_case "every stop ends the run" `Quick
            test_run_lifecycle;
          Alcotest.test_case "a raising body ends the run" `Quick
            test_raising_body_ends_the_run;
          Alcotest.test_case "max_events = max_int is no bound" `Quick
            test_unbounded_depth ] );
      ( "pruning",
        [ Alcotest.test_case "algorithm A w+r+r: >=10x fewer schedules"
            `Quick test_algorithm_a_pruning_ratio;
          Alcotest.test_case "pinned: algorithm A w+r+r = 9 classes" `Quick
            test_pinned_counts_algorithm_a;
          Alcotest.test_case "pinned: cas-loop w+w+r = 12 classes" `Quick
            test_pinned_counts_cas_maxreg ] );
      ( "model checking (n=3)",
        [ Alcotest.test_case "algorithm A w+w+r, exhaustive" `Slow
            test_algorithm_a_n3_exhaustive;
          Alcotest.test_case "cas-loop max register w+w+r, exhaustive" `Quick
            test_cas_maxreg_n3_exhaustive;
          Alcotest.test_case "f-array counter i+i+r, exhaustive" `Slow
            test_farray_counter_n3_exhaustive;
          Alcotest.test_case "f-array snapshot u+u+s, exhaustive" `Slow
            test_farray_snapshot_n3_exhaustive;
          Alcotest.test_case "snapshot counters i;i + r (n=2)" `Quick
            test_snapshot_counters_n2 ] );
      ( "shrinking",
        [ Alcotest.test_case "synthetic ddmin" `Quick test_minimize_synthetic;
          Alcotest.test_case "rejects a passing schedule" `Quick
            test_minimize_rejects_passing_schedule;
          Alcotest.test_case "injected bug shrinks to <= 6 events" `Quick
            test_shrink_buggy_maxreg;
          Alcotest.test_case "random stress run shrinks too" `Quick
            test_shrink_from_random_run ] ) ]
