(* Tests for 2-component max arrays: sequential semantics, step counts,
   linearizability (random + exhaustive), and a demonstration that two
   INDEPENDENT max registers are not a max array (the new-old inversion
   the object exists to prevent). *)

open Memsim

let impls :
    (string * (Session.t -> n:int -> Maxarray.Max_array.instance)) list =
  [ ( "from-registers",
      fun session ~n ->
        let module M = (val Smem.Sim_memory.bind session) in
        let module A = Maxarray.Max_array.From_registers (M) in
        Maxarray.Max_array.instantiate (module A) (A.create ~n) );
    ( "from-snapshot",
      fun session ~n ->
        let module M = (val Smem.Sim_memory.bind session) in
        let module A = Maxarray.Max_array.From_snapshot (M) in
        Maxarray.Max_array.instantiate (module A) (A.create ~n) );
    ( "from-farray",
      fun session ~n ->
        let module M = (val Smem.Sim_memory.bind session) in
        let module A = Maxarray.Max_array.From_farray (M) in
        Maxarray.Max_array.instantiate (module A) (A.create ~n) ) ]

(* {1 Sequential semantics} *)

let test_sequential (name, make) () =
  let session = Session.create () in
  let m : Maxarray.Max_array.instance = make session ~n:3 in
  Alcotest.(check (pair int int)) (name ^ " initial") (0, 0) (m.scan ());
  m.update0 ~pid:0 5;
  Alcotest.(check (pair int int)) (name ^ " a=5") (5, 0) (m.scan ());
  m.update1 ~pid:1 9;
  Alcotest.(check (pair int int)) (name ^ " b=9") (5, 9) (m.scan ());
  m.update0 ~pid:2 3;
  Alcotest.(check (pair int int)) (name ^ " smaller a ignored") (5, 9) (m.scan ());
  m.update1 ~pid:0 12;
  Alcotest.(check (pair int int)) (name ^ " b=12") (5, 12) (m.scan ())

let prop_sequential (name, make) =
  QCheck.Test.make
    ~name:(name ^ ": sequential = componentwise running max")
    ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 0 25)
              (pair bool (int_range 0 50)))
    (fun ops ->
      let session = Session.create () in
      let m : Maxarray.Max_array.instance = make session ~n:4 in
      let a = ref 0 and b = ref 0 in
      List.for_all
        (fun (first, v) ->
          let pid = v mod 4 in
          if first then begin
            m.update0 ~pid v;
            a := max !a v
          end
          else begin
            m.update1 ~pid v;
            b := max !b v
          end;
          m.scan () = (!a, !b))
        ops)

(* {1 Step complexity} *)

let test_farray_variant_steps () =
  List.iter
    (fun n ->
      let session = Session.create () in
      let m : Maxarray.Max_array.instance =
        (List.assoc "from-farray" impls) session ~n
      in
      m.update0 ~pid:0 1;
      Session.reset_steps session;
      ignore (m.scan ());
      Alcotest.(check int) (Printf.sprintf "n=%d scan O(1)" n) 1
        (Session.direct_steps session);
      Session.reset_steps session;
      m.update0 ~pid:(n - 1) 100;
      let u = Session.direct_steps session in
      let ceil_log2 x =
        let rec go d v = if v >= x then d else go (d + 1) (2 * v) in
        go 0 1
      in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d update %d <= %d" n u (2 + (8 * ceil_log2 n)))
        true
        (u <= 2 + (8 * ceil_log2 n)))
    [ 2; 8; 64; 256 ]

(* {1 Linearizability: random schedules} *)

let check_linearizable (name, make) ~seed ~n =
  let session = Session.create () in
  let m : Maxarray.Max_array.instance = make session ~n in
  let rng = Random.State.make [| seed |] in
  let wrapped_scan () =
    Session.annotate_invoke session ~op:"scan" ~arg:Simval.Bot;
    let a, b = m.scan () in
    Session.annotate_return session ~op:"scan"
      ~result:(Simval.Vec [| Simval.Int a; Simval.Int b |]);
    (a, b)
  in
  let wrapped_update which ~pid v =
    let op = if which = 0 then "update0" else "update1" in
    Session.annotate_invoke session ~op ~arg:(Simval.Int v);
    if which = 0 then m.update0 ~pid v else m.update1 ~pid v;
    Session.annotate_return session ~op ~result:Simval.Bot
  in
  let sched = Scheduler.create session in
  for pid = 0 to n - 1 do
    let v = 1 + Random.State.int rng 7 in
    let role = Random.State.int rng 3 in
    ignore
      (Scheduler.spawn sched (fun () ->
           match role with
           | 0 -> wrapped_update 0 ~pid v
           | 1 -> wrapped_update 1 ~pid v
           | _ -> ignore (wrapped_scan ())))
  done;
  Scheduler.run_random ~seed ~max_events:1_000_000 sched;
  let trace = Scheduler.finish sched in
  ignore name;
  Linearize.Checker.check_trace (module Linearize.Spec.Max_array) ~n trace

let test_linearizable_random ((name, _) as impl) () =
  (* the snapshot variant's operations are O(N^2): fewer seeds *)
  let seeds = if name = "from-snapshot" then 40 else 120 in
  for seed = 1 to seeds do
    if not (check_linearizable impl ~seed ~n:4) then
      Alcotest.failf "%s: non-linearizable at seed %d" name seed
  done

(* {1 Linearizability: exhaustive, via the farray variant}

   update0 + update1 + scanner, every interleaving. *)

(* (a) both components updated concurrently: every interleaving must leave
   the pair scanning as (5, 7) — cross-component atomicity of the tree. *)
let test_exhaustive_farray_updates () =
  let session = Session.create () in
  let m : Maxarray.Max_array.instance =
    (List.assoc "from-farray" impls) session ~n:2
  in
  let make_body pid () =
    if pid = 0 then m.update0 ~pid 5 else m.update1 ~pid 7
  in
  let counts = Explore.solo_counts session ~n:2 ~make_body in
  let explored = ref 0 in
  let failures = ref 0 in
  let stats =
    Explore.run_interleavings session ~make_body ~counts
      ~on_complete:(fun _ ->
        incr explored;
        if m.scan () <> (5, 7) then incr failures;
        true)
      ()
  in
  Alcotest.(check bool) "not truncated" false stats.Explore.truncated;
  Alcotest.(check bool)
    (Printf.sprintf "explored %d interleavings" !explored)
    true (!explored > 1_000);
  Alcotest.(check int) "every interleaving converges to (5,7)" 0 !failures

(* (b) one updater against a scanner: every interleaving linearizable. *)
let test_exhaustive_farray_scan () =
  let session = Session.create () in
  let m : Maxarray.Max_array.instance =
    (List.assoc "from-farray" impls) session ~n:2
  in
  let make_body pid () =
    if pid = 0 then begin
      Session.annotate_invoke session ~op:"update0" ~arg:(Simval.Int 5);
      m.update0 ~pid 5;
      Session.annotate_return session ~op:"update0" ~result:Simval.Bot
    end
    else begin
      Session.annotate_invoke session ~op:"scan" ~arg:Simval.Bot;
      let a, b = m.scan () in
      Session.annotate_return session ~op:"scan"
        ~result:(Simval.Vec [| Simval.Int a; Simval.Int b |])
    end
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
               (module Linearize.Spec.Max_array)
               ~n:2 trace)
        then incr failures;
        true)
      ()
  in
  Alcotest.(check bool) "not truncated" false stats.Explore.truncated;
  Alcotest.(check bool)
    (Printf.sprintf "explored %d schedules" !explored)
    true (!explored >= 10);
  Alcotest.(check int) "no violations" 0 !failures

(* {1 From_registers, exhaustively: one updater per component + scanner}

   The double-collect construction's whole point is surviving exactly the
   interleavings that invert two independent registers; enumerate them
   all. *)

let test_exhaustive_from_registers () =
  let session = Session.create () in
  (* small bounds keep each operation a few events so the whole schedule
     space is enumerable *)
  let module M = (val Smem.Sim_memory.bind session) in
  let module A = Maxarray.Max_array.From_registers (M) in
  let t = A.create_bounded ~bound0:8 ~bound1:8 () in
  let make_body pid () =
    if pid = 0 then begin
      Session.annotate_invoke session ~op:"update0" ~arg:(Simval.Int 5);
      A.max_update0 t ~pid 5;
      Session.annotate_return session ~op:"update0" ~result:Simval.Bot
    end
    else begin
      Session.annotate_invoke session ~op:"scan" ~arg:Simval.Bot;
      let a, b = A.max_scan t in
      Session.annotate_return session ~op:"scan"
        ~result:(Simval.Vec [| Simval.Int a; Simval.Int b |])
    end
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
               (module Linearize.Spec.Max_array)
               ~n:2 trace)
        then incr failures;
        true)
      ()
  in
  Alcotest.(check bool) "not truncated" false stats.Explore.truncated;
  Alcotest.(check bool) "explored some" true (!explored >= 10);
  Alcotest.(check int) "no violations" 0 !failures

(* ...and the cross-component race specifically: update0 + update1 +
   scanner, with tiny bounds (2-valued registers) so every one of the few
   thousand interleavings is enumerated. *)
let test_exhaustive_from_registers_cross () =
  let session = Session.create () in
  let module M = (val Smem.Sim_memory.bind session) in
  let module A = Maxarray.Max_array.From_registers (M) in
  let t = A.create_bounded ~bound0:2 ~bound1:2 () in
  let make_body pid () =
    match pid with
    | 0 ->
      Session.annotate_invoke session ~op:"update0" ~arg:(Simval.Int 1);
      A.max_update0 t ~pid 1;
      Session.annotate_return session ~op:"update0" ~result:Simval.Bot
    | 1 ->
      Session.annotate_invoke session ~op:"update1" ~arg:(Simval.Int 1);
      A.max_update1 t ~pid 1;
      Session.annotate_return session ~op:"update1" ~result:Simval.Bot
    | _ ->
      Session.annotate_invoke session ~op:"scan" ~arg:Simval.Bot;
      let a, b = A.max_scan t in
      Session.annotate_return session ~op:"scan"
        ~result:(Simval.Vec [| Simval.Int a; Simval.Int b |])
  in
  let explored = ref 0 in
  let failures = ref 0 in
  let stats =
    Explore.run session ~n:3 ~make_body
      ~on_complete:(fun trace ->
        incr explored;
        if
          not
            (Linearize.Checker.check_trace
               (module Linearize.Spec.Max_array)
               ~n:3 trace)
        then incr failures;
        true)
      ()
  in
  Alcotest.(check bool) "not truncated" false stats.Explore.truncated;
  Alcotest.(check bool)
    (Printf.sprintf "explored %d schedules" !explored)
    true
    (!explored >= 20);
  Alcotest.(check int) "no violations" 0 !failures

(* {1 Why the object is needed: two independent max registers admit
   new-old inversions} *)

let test_independent_registers_invert () =
  let session = Session.create () in
  let module R = Boxed.Cas_maxreg in
  let ra, rb =
    Boxed.Raw.with_memory (Smem.Sim_memory.bind session) (fun () ->
        (R.create (), R.create ()))
  in
  let scan_result a b = Simval.Vec [| Simval.Int a; Simval.Int b |] in
  let scan pid () =
    Session.annotate_invoke session ~op:"scan" ~arg:Simval.Bot;
    let a = R.read_max ra in
    let b = R.read_max rb in
    ignore pid;
    Session.annotate_return session ~op:"scan" ~result:(scan_result a b)
  in
  let sched = Scheduler.create session in
  let s1 = Scheduler.spawn sched (scan 0) in
  let s2 = Scheduler.spawn sched (scan 1) in
  let u0 =
    Scheduler.spawn sched (fun () ->
        Session.annotate_invoke session ~op:"update0" ~arg:(Simval.Int 5);
        R.write_max ra ~pid:2 5;
        Session.annotate_return session ~op:"update0" ~result:Simval.Bot)
  in
  let u1 =
    Scheduler.spawn sched (fun () ->
        Session.annotate_invoke session ~op:"update1" ~arg:(Simval.Int 5);
        R.write_max rb ~pid:3 5;
        Session.annotate_return session ~op:"update1" ~result:Simval.Bot)
  in
  (* s2 reads a (0); u0 completes; s1 reads a (5) and b (0), completing with
     (5,0); u1 completes; s2 reads b (5), completing with (0,5): inversion *)
  ignore (Scheduler.step sched s2);
  Scheduler.run_solo sched u0;
  Scheduler.run_solo sched s1;
  Scheduler.run_solo sched u1;
  Scheduler.run_solo sched s2;
  let trace = Scheduler.finish sched in
  Alcotest.(check bool) "independent registers are NOT a max array" false
    (Linearize.Checker.check_trace (module Linearize.Spec.Max_array) ~n:4
       trace)

let () =
  Alcotest.run "max_array"
    [ ( "sequential",
        List.map
          (fun impl ->
            Alcotest.test_case (fst impl) `Quick (test_sequential impl))
          impls
        @ List.map (fun impl -> QCheck_alcotest.to_alcotest (prop_sequential impl)) impls );
      ("steps", [ Alcotest.test_case "farray variant" `Quick test_farray_variant_steps ]);
      ( "linearizability",
        List.map
          (fun impl ->
            Alcotest.test_case (fst impl ^ " random") `Quick
              (test_linearizable_random impl))
          impls
        @ [ Alcotest.test_case "farray exhaustive (u0 || u1)" `Quick
              test_exhaustive_farray_updates;
            Alcotest.test_case "farray exhaustive (u0 || scan)" `Quick
              test_exhaustive_farray_scan;
            Alcotest.test_case "from-registers exhaustive (u0 || scan)" `Quick
              test_exhaustive_from_registers;
            Alcotest.test_case "from-registers exhaustive (u0 || u1 || scan)"
              `Quick test_exhaustive_from_registers_cross ] );
      ( "motivation",
        [ Alcotest.test_case "independent registers invert" `Quick
            test_independent_registers_invert ] ) ]
