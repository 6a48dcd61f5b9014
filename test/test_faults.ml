(* The fault-injection layer: plan DSL round-trips, the two composition
   points (program-level crash/CAS-failure instrumentation, scheduler-level
   stall/halt gating), verdict parity on a mutant that loses wait-freedom
   under a stalled helper, exhaustive single-fault sweeps on 3-process
   Algorithm A and the CAS-loop register, and random fault plans with
   linearizability of the surviving histories. *)

open Memsim

let lin_maxreg ~n =
  Linearize.Checker.check_trace (module Linearize.Spec.Max_register) ~n

let lin_counter ~n =
  Linearize.Checker.check_trace (module Linearize.Spec.Counter) ~n

(* {1 Plan DSL} *)

let test_plan_roundtrip () =
  let plan =
    [ Faults.Crash { pid = 0; after = 7 };
      Faults.Cas_fail { pid = 2; nth = 1 };
      Faults.Stall { pid = 1; at = 3; points = 12 };
      Faults.Halt_all_but { pid = 2; at = 9 } ]
  in
  Alcotest.(check string)
    "prints compactly" "crash:0@7,casfail:2#1,stall:1@3+12,haltbut:2@9"
    (Faults.to_string plan);
  (match Faults.parse (Faults.to_string plan) with
   | Ok p -> Alcotest.(check bool) "parse inverts print" true (p = plan)
   | Error e -> Alcotest.fail e);
  (match Faults.parse "none" with
   | Ok [] -> ()
   | Ok _ | Error _ -> Alcotest.fail "\"none\" is the empty plan");
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S must not parse" bad))
    [ "crash:0"; "crash:x@1"; "casfail:1#0"; "stall:1@2"; "frob:1@2"; "crash:-1@2" ]

(* regression: inner whitespace used to fail (int_of_string doesn't trim),
   so a hand-edited plan like "crash: 0 @ 2" was rejected even though
   whitespace around commas worked.  Every clause kind, with spaces in
   every position, must parse to the same plan as the compact form. *)
let test_parse_whitespace () =
  let check_same spaced compact =
    match (Faults.parse spaced, Faults.parse compact) with
    | Ok a, Ok b ->
      Alcotest.(check bool) (Printf.sprintf "%S ≡ %S" spaced compact) true (a = b)
    | Error e, _ -> Alcotest.fail (Printf.sprintf "%S: %s" spaced e)
    | _, Error e -> Alcotest.fail (Printf.sprintf "%S: %s" compact e)
  in
  check_same "crash: 0 @ 2" "crash:0@2";
  check_same " casfail : 1 # 3 " "casfail:1#3";
  check_same "stall: 1 @ 3 + 12" "stall:1@3+12";
  check_same "haltbut: 2 @ 9" "haltbut:2@9";
  check_same "crash: 0 @ 2 , stall: 1 @ 3 + 12" "crash:0@2,stall:1@3+12"

(* regression: a clause repeated verbatim used to be accepted silently —
   but instrument/gate apply it once, so the plan lied about itself.  It
   must now be rejected, with an error a human can act on. *)
let test_parse_duplicate_rejected () =
  (match Faults.parse "crash:0@2,stall:1@3+4,crash:0@2" with
   | Ok _ -> Alcotest.fail "duplicate clause must not parse"
   | Error e ->
     let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool)
       (Printf.sprintf "error mentions duplicate: %S" e)
       true (contains e "duplicate"));
  (* distinct clauses of the same kind are not duplicates *)
  match Faults.parse "crash:0@2,crash:0@3,crash:1@2" with
  | Ok p -> Alcotest.(check int) "three distinct crashes" 3 (List.length p)
  | Error e -> Alcotest.fail e

let test_single_fault_enumerations () =
  Alcotest.(check int) "1-crash plans = sum of solo counts" (4 + 2 + 3)
    (List.length (Faults.single_crash_plans ~counts:[| 4; 2; 3 |]));
  Alcotest.(check int) "1-stall plans = n * (max_point + 1)" (3 * 8)
    (List.length (Faults.single_stall_plans ~n:3 ~max_point:7 ~points:5));
  List.iter
    (fun plan ->
      match plan with
      | [ (_ : Faults.fault) ] -> ()
      | _ -> Alcotest.fail "plans must be single-fault")
    (Faults.single_crash_plans ~counts:[| 4; 2; 3 |])

let test_minimize_plan () =
  let test = List.exists (function Faults.Crash { pid = 0; _ } -> true | _ -> false) in
  let minimal =
    Faults.minimize ~test
      [ Faults.Stall { pid = 1; at = 3; points = 4 };
        Faults.Crash { pid = 0; after = 7 };
        Faults.Cas_fail { pid = 2; nth = 2 } ]
  in
  Alcotest.(check bool) "stripped to the one relevant fault, shrunk to 0" true
    (minimal = [ Faults.Crash { pid = 0; after = 0 } ]);
  Alcotest.check_raises "initial plan must satisfy test"
    (Invalid_argument "Faults.minimize: test does not hold of the initial plan")
    (fun () ->
      ignore (Faults.minimize ~test:(fun _ -> false) [] : Faults.plan))

(* {1 Gate semantics} *)

let test_gate_stall_window () =
  let g = Faults.gate [ Faults.Stall { pid = 1; at = 2; points = 3 } ] in
  let permitted_at_each_point = ref [] in
  for _ = 0 to 6 do
    permitted_at_each_point := Faults.permits g 1 :: !permitted_at_each_point;
    Faults.tick g
  done;
  Alcotest.(check (list bool))
    "stalled exactly on [at, at+points)"
    [ true; true; false; false; false; true; true ]
    (List.rev !permitted_at_each_point);
  Alcotest.(check bool) "other pids unaffected" true (Faults.permits g 0)

let test_gate_halt_all_but () =
  let g = Faults.gate [ Faults.Halt_all_but { pid = 2; at = 2 } ] in
  Alcotest.(check bool) "before at: everyone runs" true
    (Faults.permits g 0 && Faults.permits g 1 && Faults.permits g 2);
  Alcotest.(check bool) "not yet frozen forever" false (Faults.halted_forever g 0);
  Faults.tick g;
  Faults.tick g;
  Alcotest.(check bool) "chosen pid still runs" true (Faults.permits g 2);
  Alcotest.(check bool) "others gated" false
    (Faults.permits g 0 || Faults.permits g 1);
  Alcotest.(check bool) "others frozen forever" true
    (Faults.halted_forever g 0 && Faults.halted_forever g 1);
  Alcotest.(check bool) "chosen pid not frozen" false (Faults.halted_forever g 2)

(* {1 Program-level instrumentation} *)

(* A crash truncates the body at exactly the requested local event count,
   and the scheduler sees an ordinary early completion. *)
let test_crash_truncates_exactly () =
  let session = Session.create () in
  let x = Session.alloc session ~name:"x" (Simval.Int 0) in
  let make_body _pid () =
    for v = 1 to 5 do
      Session.write session x (Simval.Int v)
    done
  in
  List.iter
    (fun after ->
      Store.reset (Session.store session);
      let plan = [ Faults.Crash { pid = 0; after } ] in
      let sched = Scheduler.create session in
      ignore (Scheduler.spawn sched (Faults.instrument plan make_body 0) : int);
      Scheduler.run_solo sched 0;
      let steps = Scheduler.steps_of sched 0 in
      ignore (Scheduler.finish sched : Trace.t);
      Alcotest.(check int)
        (Printf.sprintf "crash after %d issues %d events" after after)
        after steps;
      Alcotest.(check bool)
        (Printf.sprintf "store holds the last pre-crash write (after=%d)" after)
        true
        (Store.get (Session.store session) x = Simval.Int after))
    [ 0; 1; 3; 5 ]

(* A forced CAS failure is still one step (a trivial event on the same
   object), the body observes [false], and the store is untouched. *)
let test_cas_fail_forces_failure () =
  let session = Session.create () in
  let x = Session.alloc session ~name:"x" (Simval.Int 0) in
  let results = ref [] in
  let make_body _pid () =
    for v = 1 to 3 do
      let ok =
        Session.cas session x ~expected:(Simval.Int (v - 1))
          ~desired:(Simval.Int v)
      in
      results := ok :: !results
    done
  in
  let run plan =
    Store.reset (Session.store session);
    results := [];
    let sched = Scheduler.create session in
    ignore (Scheduler.spawn sched (Faults.instrument plan make_body 0) : int);
    Scheduler.run_solo sched 0;
    let steps = Scheduler.steps_of sched 0 in
    ignore (Scheduler.finish sched : Trace.t);
    (List.rev !results, steps, Store.get (Session.store session) x)
  in
  let oks, steps, final = run [] in
  Alcotest.(check (list bool)) "unfaulted: all CASes win" [ true; true; true ] oks;
  Alcotest.(check int) "3 steps" 3 steps;
  Alcotest.(check bool) "chain completes" true (final = Simval.Int 3);
  let oks, steps, final = run [ Faults.Cas_fail { pid = 0; nth = 2 } ] in
  Alcotest.(check (list bool))
    "2nd CAS spuriously fails; 3rd honestly fails (stale expected)"
    [ true; false; false ] oks;
  Alcotest.(check int) "still 3 steps (failure is an event)" 3 steps;
  Alcotest.(check bool) "chain stops at the failure" true (final = Simval.Int 1)

(* Program faults compose with DPOR unchanged: on two disjoint objects a
   crashed writer still collapses to one trace class, and the class count
   shrinks with the crash point. *)
let test_crash_composes_with_dpor () =
  let session = Session.create () in
  let a = Session.alloc session ~name:"a" (Simval.Int 0) in
  let b = Session.alloc session ~name:"b" (Simval.Int 0) in
  let make_body pid () =
    let obj = if pid = 0 then a else b in
    ignore (Session.read session obj);
    Session.write session obj (Simval.Int pid)
  in
  let classes plan =
    let stats =
      Dpor.run session ~n:2
        ~make_body:(Faults.instrument plan make_body)
        ~on_complete:(fun _ -> true)
        ()
    in
    stats.Dpor.explored
  in
  Alcotest.(check int) "disjoint, no fault: 1 class" 1 (classes []);
  Alcotest.(check int) "disjoint, p0 crashed at 1: still 1 class" 1
    (classes [ Faults.Crash { pid = 0; after = 1 } ]);
  Alcotest.(check int) "p0 crashed before any event: 1 class" 1
    (classes [ Faults.Crash { pid = 0; after = 0 } ])

(* {1 Verdict parity: wait-freedom under a stalled helper}

   A register that delegates propagation to a helper process — writers
   publish to an announce cell and spin on the root until the helper has
   propagated — is linearizable but not wait-free: its step count under a
   stalled helper is unbounded.  The same audit must catch the mutant and
   pass the genuinely wait-free Algorithm A. *)

let helper_dependent_maxreg session =
  let announce = Session.alloc session ~name:"announce" (Simval.Int 0) in
  let root = Session.alloc session ~name:"root" (Simval.Int 0) in
  let read obj = Simval.int_or ~default:0 (Session.read session obj) in
  let write obj v = Session.write session obj (Simval.Int v) in
  let reg : Maxreg.Max_register.instance =
    { read_max = (fun () -> read root);
      write_max =
        (fun ~pid:_ v ->
          if v > read announce then write announce v;
          (* wait for the helper — unbounded without it *)
          while read root < v do () done) }
  in
  let helper ~rounds () =
    for _ = 1 to rounds do
      let a = read announce in
      let r = read root in
      if a > r then write root a
    done
  in
  (reg, helper)

(* Run the 2-process writer+helper scenario under [plan]; the writer is
   wait-free iff it completes within [ceiling] of its own steps no matter
   how the helper is gated. *)
let writer_outcome_under ~plan ~ceiling make_scenario =
  let session, make_body = make_scenario () in
  Store.reset (Session.store session);
  let sched = Scheduler.create session in
  for pid = 0 to 1 do
    ignore (Scheduler.spawn sched (Faults.instrument plan make_body pid) : int)
  done;
  let g = Faults.gate plan in
  Faults.run_round_robin ~max_events:2_000 sched g;
  let steps = Scheduler.steps_of sched 0 in
  let finished = Scheduler.is_finished sched 0 in
  ignore (Scheduler.finish sched : Trace.t);
  (finished && steps <= ceiling, steps)

let mutant_scenario () =
  let session = Session.create () in
  let raw, helper = helper_dependent_maxreg session in
  let reg = Harness.Annotate.max_register session raw in
  let make_body pid () =
    if pid = 0 then reg.write_max ~pid 5 else helper ~rounds:40 ()
  in
  (session, make_body)

let algorithm_a_scenario () =
  let session = Session.create () in
  let reg =
    Harness.Annotate.max_register session
      (Harness.Instances.maxreg_sim session ~n:2 ~bound:8
         Harness.Instances.Algorithm_a)
  in
  let make_body pid () =
    if pid = 0 then reg.write_max ~pid 5 else ignore (reg.read_max () : int)
  in
  (session, make_body)

let hostile_plans =
  [ [ Faults.Stall { pid = 1; at = 0; points = 200 } ];
    [ Faults.Halt_all_but { pid = 0; at = 1 } ] ]

let test_mutant_caught_under_stalled_helper () =
  (* sanity: with no fault the mutant does complete quickly *)
  let ok, steps = writer_outcome_under ~plan:[] ~ceiling:16 mutant_scenario in
  Alcotest.(check bool)
    (Printf.sprintf "mutant passes without faults (%d steps)" steps)
    true ok;
  List.iter
    (fun plan ->
      let ok, steps = writer_outcome_under ~plan ~ceiling:16 mutant_scenario in
      Alcotest.(check bool)
        (Fmt.str "mutant caught under %a (%d steps)" Faults.pp plan steps)
        false ok)
    hostile_plans

let test_algorithm_a_passes_under_stalled_helper () =
  List.iter
    (fun plan ->
      let ok, steps =
        writer_outcome_under ~plan ~ceiling:64 algorithm_a_scenario
      in
      Alcotest.(check bool)
        (Fmt.str "algorithm A wait-free under %a (%d steps)" Faults.pp plan
           steps)
        true ok)
    (* the no-fault baseline plus both hostile plans *)
    ([] :: hostile_plans)

(* {1 Exhaustive single-fault sweeps (acceptance criterion)}

   Every single-crash plan: DPOR over the instrumented program — crashes
   are program transformations, so DPOR's pruning applies as-is.  Every
   single-stall plan: the gated explorer (stalls are scheduling
   restrictions, invisible to the program).  In both sweeps every
   surviving history must linearize and every process must stay within
   the wait-free step bound. *)

let sweep_scenario_algorithm_a () =
  let session = Session.create () in
  let reg =
    Harness.Annotate.max_register session
      (Harness.Instances.maxreg_sim session ~n:3 ~bound:8
         Harness.Instances.Algorithm_a)
  in
  let make_body pid () =
    if pid = 0 then reg.write_max ~pid 5 else ignore (reg.read_max () : int)
  in
  (session, make_body)

let sweep_scenario_cas_loop () =
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
    | _ -> ignore (reg.read_max () : int)
  in
  (session, make_body)

let checked ~step_bound ~n trace ~failures =
  List.iter
    (fun pid ->
      if Trace.step_count trace pid > step_bound then incr failures)
    (Trace.pids trace);
  if not (lin_maxreg ~n trace) then incr failures;
  true

(* [plans] and [classes] pin the sweep's size: the DPOR classes summed
   over every plan.  A restart that fast-forwarded a crashed or
   CAS-failing process past the plan's own handler would explore other
   programs and move them. *)
let crash_sweep name make_scenario ~plans:n_plans ~classes =
  let session, make_body = make_scenario () in
  let counts = Explore.solo_counts session ~n:3 ~make_body in
  let plans = Faults.single_crash_plans ~counts in
  Alcotest.(check bool)
    (Printf.sprintf "%s: sweep is non-trivial (%d plans)" name
       (List.length plans))
    true
    (List.length plans >= 5);
  let failures = ref 0 in
  let total_classes = ref 0 in
  List.iter
    (fun plan ->
      let stats =
        Dpor.run session ~n:3
          ~make_body:(Faults.instrument plan make_body)
          ~on_complete:(checked ~step_bound:64 ~n:3 ~failures)
          ()
      in
      Alcotest.(check bool)
        (Fmt.str "%s: %a not truncated" name Faults.pp plan)
        false stats.Dpor.truncated;
      total_classes := !total_classes + stats.Dpor.explored)
    plans;
  Alcotest.(check int)
    (Printf.sprintf
       "%s: all surviving histories linearizable, step bound holds (%d plans, \
        %d classes)"
       name (List.length plans) !total_classes)
    0 !failures;
  Alcotest.(check int) (name ^ ": crash plans") n_plans (List.length plans);
  Alcotest.(check int) (name ^ ": dpor classes over all plans") classes
    !total_classes

let test_crash_sweep_algorithm_a () =
  crash_sweep "algorithm A w+r+r" sweep_scenario_algorithm_a ~plans:28
    ~classes:44

let test_crash_sweep_cas_loop () =
  crash_sweep "cas-loop w+w+r" sweep_scenario_cas_loop ~plans:5 ~classes:16

(* [plans] and [schedules] pin the sweep's size, as [crash_sweep]'s
   totals do: the gated schedules summed over every plan. *)
let stall_sweep name make_scenario ~points ~plans:n_plans ~schedules =
  let session, make_body = make_scenario () in
  let counts = Explore.solo_counts session ~n:3 ~make_body in
  (* stalls starting beyond the longest possible execution never bind *)
  let max_point = Array.fold_left ( + ) 0 counts in
  let plans = Faults.single_stall_plans ~n:3 ~max_point ~points in
  let failures = ref 0 in
  let total = ref 0 in
  List.iter
    (fun plan ->
      let stats =
        Faults.explore session ~n:3 ~make_body ~plan ~max_events:100
          ~on_complete:(checked ~step_bound:64 ~n:3 ~failures)
          ()
      in
      Alcotest.(check bool)
        (Fmt.str "%s: %a not truncated" name Faults.pp plan)
        false stats.Explore.truncated;
      Alcotest.(check bool)
        (Fmt.str "%s: %a explored something" name Faults.pp plan)
        true
        (stats.Explore.explored > 0);
      total := !total + stats.Explore.explored)
    plans;
  Alcotest.(check int)
    (Printf.sprintf "%s: linearizable within step bound under all %d stalls"
       name (List.length plans))
    0 !failures;
  Alcotest.(check int) (name ^ ": stall plans") n_plans (List.length plans);
  Alcotest.(check int) (name ^ ": schedules over all plans") schedules !total

let test_stall_sweep_algorithm_a () =
  stall_sweep "algorithm A w+r+r" sweep_scenario_algorithm_a ~points:5
    ~plans:87 ~schedules:45_216

let test_stall_sweep_cas_loop () =
  stall_sweep "cas-loop w+w+r" sweep_scenario_cas_loop ~points:5 ~plans:18
    ~schedules:344

(* A body that raises ends the gated exploration with [Process_failure]
   and leaves no run open: the session takes another exploration and a
   replay. *)
let test_raising_body_ends_the_run () =
  let session = Session.create () in
  let a = Session.alloc session ~name:"a" (Simval.Int 0) in
  let quiet pid () = Session.write session a (Simval.Int pid) in
  let raising pid () =
    quiet pid ();
    if pid = 1 then failwith "p1 fails"
  in
  let explore make_body =
    Faults.explore session ~n:2 ~make_body ~plan:[]
      ~on_complete:(fun _ -> true) ()
  in
  (match explore raising with
   | _ -> Alcotest.fail "the failing body went unnoticed"
   | exception Scheduler.Process_failure (1, Failure _) -> ());
  Alcotest.(check int) "schedules of a second exploration" 2
    (explore quiet).Explore.explored;
  let run = Replay.replay session ~n:2 ~make_body:quiet ~schedule:[ 1; 0 ] () in
  Alcotest.(check int) "events replayed" 2 (Scheduler.event_count run);
  ignore (Scheduler.finish run : Trace.t)

(* Every trace the gated explorer delivers equals the replay of its own
   schedule followed by one inspection, under no stall and under each
   single stall.  p1 starts with an operation that issues no event, so
   inspecting the root records its annotations: the explorer must
   restart every child there rather than hand the root's run down. *)
let test_gated_traces_replay () =
  let session = Session.create () in
  let x = Session.alloc session ~name:"x" (Simval.Int 0) in
  let y = Session.alloc session ~name:"y" (Simval.Int 0) in
  let op name f =
    Session.annotate_invoke session ~op:name ~arg:Simval.Bot;
    f ();
    Session.annotate_return session ~op:name ~result:Simval.Bot
  in
  let write o v () =
    Session.write session o (Simval.Int v)
  in
  let read o () = ignore (Session.read session o) in
  let make_body pid () =
    match pid with
    | 0 -> op "write" (write x 1); op "read" (read y)
    | 1 -> op "nop" ignore; op "write" (write x 2); op "write" (write y 3)
    | _ -> op "read" (read x)
  in
  List.iter
    (fun plan ->
      let mismatches = ref 0 in
      let stats =
        Faults.explore session ~n:3 ~make_body ~plan
          ~on_complete:(fun trace ->
            let sched =
              Replay.replay session ~n:3 ~make_body
                ~schedule:(Trace.schedule trace) ()
            in
            ignore (Scheduler.active_pids sched : int list);
            let replayed = Scheduler.finish sched in
            if Trace.entries replayed <> Trace.entries trace then
              incr mismatches;
            true)
          ()
      in
      Alcotest.(check bool)
        (Fmt.str "%a explored something" Faults.pp plan)
        true
        (stats.Explore.explored > 0);
      Alcotest.(check int)
        (Fmt.str "%a: traces differing from their replay" Faults.pp plan)
        0 !mismatches)
    ([] :: Faults.single_stall_plans ~n:3 ~max_point:6 ~points:2)

(* {1 Random fault plans (qcheck)}

   Arbitrary small plans over correct implementations: whatever the
   faults, the surviving history must linearize. *)

let fault_gen ~n =
  QCheck.Gen.(
    int_range 0 3 >>= fun kind ->
    int_range 0 (n - 1) >>= fun pid ->
    int_range 0 20 >>= fun a ->
    int_range 1 10 >>= fun b ->
    return
      (match kind with
       | 0 -> Faults.Crash { pid; after = a }
       | 1 -> Faults.Cas_fail { pid; nth = b }
       | 2 -> Faults.Stall { pid; at = a; points = b }
       | _ -> Faults.Halt_all_but { pid; at = a }))

let plan_arb ~n =
  QCheck.make
    ~print:Faults.to_string
    QCheck.Gen.(list_size (int_range 1 3) (fault_gen ~n))

(* print/parse round-trip over arbitrary duplicate-free plans — the
   unit pins above check hand-picked clauses; this fuzzes the whole
   space, including whitespace-injected renderings *)
let dedup plan =
  List.rev
    (List.fold_left
       (fun acc f -> if List.mem f acc then acc else f :: acc)
       [] plan)

let qcheck_parse_roundtrip =
  QCheck.Test.make ~count:300 ~name:"parse (to_string plan) = Ok plan"
    (QCheck.map dedup (plan_arb ~n:4))
    (fun plan ->
      Faults.parse (Faults.to_string plan) = Ok plan
      && (* spaces around every clause survive too *)
      Faults.parse
        (String.concat " , " (List.map (fun f -> Faults.to_string [ f ]) plan))
      = Ok plan)

let surviving_history_linearizable name make_scenario check =
  QCheck.Test.make ~count:150
    ~name:(name ^ ": surviving histories linearize under random plans")
    (QCheck.pair (plan_arb ~n:3) (QCheck.int_range 0 10_000))
    (fun (plan, seed) ->
      let session, make_body = make_scenario () in
      Store.reset (Session.store session);
      let sched = Scheduler.create session in
      for pid = 0 to 2 do
        ignore
          (Scheduler.spawn sched (Faults.instrument plan make_body pid) : int)
      done;
      let g = Faults.gate plan in
      Faults.run_random ~max_events:400 ~seed sched g;
      let trace = Scheduler.finish sched in
      check ~n:3 trace)

let counter_scenario () =
  let session = Session.create () in
  let c =
    Harness.Annotate.counter session
      (Harness.Instances.counter_sim session ~n:3 ~bound:8
         Harness.Instances.Farray_counter)
  in
  let make_body pid () =
    if pid < 2 then c.increment ~pid else ignore (c.read () : int)
  in
  (session, make_body)

let qcheck_random_plans =
  [ surviving_history_linearizable "algorithm A" sweep_scenario_algorithm_a
      lin_maxreg;
    surviving_history_linearizable "cas-loop" sweep_scenario_cas_loop
      lin_maxreg;
    surviving_history_linearizable "f-array counter" counter_scenario
      lin_counter ]

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "faults"
    [ ( "plan dsl",
        [ Alcotest.test_case "print/parse round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "whitespace tolerated everywhere" `Quick
            test_parse_whitespace;
          Alcotest.test_case "duplicate clause rejected" `Quick
            test_parse_duplicate_rejected;
          QCheck_alcotest.to_alcotest ~verbose:false qcheck_parse_roundtrip;
          Alcotest.test_case "single-fault enumerations" `Quick
            test_single_fault_enumerations;
          Alcotest.test_case "plan minimization" `Quick test_minimize_plan ] );
      ( "gate",
        [ Alcotest.test_case "stall window" `Quick test_gate_stall_window;
          Alcotest.test_case "halt-all-but" `Quick test_gate_halt_all_but ] );
      ( "instrumentation",
        [ Alcotest.test_case "crash truncates exactly" `Quick
            test_crash_truncates_exactly;
          Alcotest.test_case "forced CAS failure" `Quick
            test_cas_fail_forces_failure;
          Alcotest.test_case "crash composes with dpor" `Quick
            test_crash_composes_with_dpor ] );
      ( "verdict parity",
        [ Alcotest.test_case "helper-dependent mutant caught" `Quick
            test_mutant_caught_under_stalled_helper;
          Alcotest.test_case "algorithm A passes the same audit" `Quick
            test_algorithm_a_passes_under_stalled_helper ] );
      ( "single-fault sweeps",
        [ Alcotest.test_case "all 1-crash plans, algorithm A (dpor)" `Quick
            test_crash_sweep_algorithm_a;
          Alcotest.test_case "all 1-crash plans, cas-loop (dpor)" `Quick
            test_crash_sweep_cas_loop;
          Alcotest.test_case "all 1-stall plans, algorithm A" `Slow
            test_stall_sweep_algorithm_a;
          Alcotest.test_case "all 1-stall plans, cas-loop" `Quick
            test_stall_sweep_cas_loop;
          Alcotest.test_case "gated traces equal their replay" `Quick
            test_gated_traces_replay;
          Alcotest.test_case "a raising body ends the run" `Quick
            test_raising_body_ends_the_run ] );
      ("random plans", qsuite qcheck_random_plans) ]
