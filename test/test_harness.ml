(* Tests for the harness utilities: the counting-memory wrapper, step
   measurement, the throughput harness, table rendering, and the native
   sweep E7 runs over it. *)

open Memsim

(* {1 Counting memory} *)

let test_counting_memory () =
  let counting, counts =
    Smem.Counting_memory.wrap (module Smem.Atomic_memory)
  in
  let module M = (val counting) in
  let r = M.make (Simval.Int 0) in
  ignore (M.read r);
  ignore (M.read r);
  M.write r (Simval.Int 5);
  ignore (M.cas r ~expected:(Simval.Int 5) ~desired:(Simval.Int 6));
  ignore (M.cas r ~expected:(Simval.Int 99) ~desired:(Simval.Int 7));
  Alcotest.(check int) "reads" 2 counts.Smem.Counting_memory.reads;
  Alcotest.(check int) "writes" 1 counts.Smem.Counting_memory.writes;
  Alcotest.(check int) "cas" 2 counts.Smem.Counting_memory.cas;
  Alcotest.(check int) "total" 5 (Smem.Counting_memory.total counts);
  Smem.Counting_memory.reset counts;
  Alcotest.(check int) "reset" 0 (Smem.Counting_memory.total counts)

let test_counting_wrapper_is_isolated () =
  let m1, c1 = Smem.Counting_memory.wrap (module Smem.Atomic_memory) in
  let m2, c2 = Smem.Counting_memory.wrap (module Smem.Atomic_memory) in
  let module M1 = (val m1) in
  let module M2 = (val m2) in
  let r1 = M1.make (Simval.Int 0) and r2 = M2.make (Simval.Int 0) in
  ignore (M1.read r1);
  ignore (M1.read r1);
  ignore (M2.read r2);
  Alcotest.(check int) "m1 counts" 2 c1.Smem.Counting_memory.reads;
  Alcotest.(check int) "m2 counts" 1 c2.Smem.Counting_memory.reads

(* The counting wrapper agrees with the simulator's own step accounting. *)
let test_counting_agrees_with_sim () =
  let session = Session.create () in
  let counting, counts = Smem.Counting_memory.wrap (Smem.Sim_memory.bind session) in
  let module A = Boxed.Algorithm_a in
  let reg = Boxed.Raw.with_memory counting (A.create ~n:16) in
  Session.reset_steps session;
  Smem.Counting_memory.reset counts;
  A.write_max reg ~pid:0 7;
  ignore (A.read_max reg);
  Alcotest.(check int) "same total"
    (Session.direct_steps session)
    (Smem.Counting_memory.total counts)

(* {1 Measurement} *)

let test_measure_steps () =
  let session = Session.create () in
  let a = Session.alloc session ~name:"a" (Simval.Int 0) in
  let steps =
    Harness.Measure.steps session (fun () ->
        ignore (Session.read session a);
        Session.write session a (Simval.Int 1))
  in
  Alcotest.(check int) "two events" 2 steps

let test_measure_max_steps () =
  let session = Session.create () in
  let a = Session.alloc session ~name:"a" (Simval.Int 0) in
  let worst =
    Harness.Measure.max_steps session ~trials:5 (fun i ->
        for _ = 0 to i do
          ignore (Session.read session a)
        done)
  in
  Alcotest.(check int) "worst trial issues 5 reads" 5 worst

let test_measure_powers () =
  Alcotest.(check (list int)) "powers" [ 2; 4; 8; 16 ]
    (Harness.Measure.powers ~start:2 ~stop:16);
  Alcotest.(check (list int)) "stop not power" [ 3; 6; 12 ]
    (Harness.Measure.powers ~start:3 ~stop:13)

(* {1 Throughput window arithmetic}

   Pin the elapsed-time denominator against a scripted clock: the rate
   must be [operations / measured elapsed], never [operations /
   requested seconds].  (The old accounting divided by the request,
   counting spawn cost, startup skew and post-sleep operations into a
   window that didn't contain them.) *)

let scripted_clock times =
  let i = ref 0 in
  fun () ->
    let k = !i in
    incr i;
    if k < Array.length times then times.(k) else times.(Array.length times - 1)

let test_run_alone_measured_window () =
  (* now() call sites: deadline base, t0, loop checks..., t1 after exit.
     Script one chunk (1024 ops at batch 1) and a window of 2.0 measured
     seconds: the rate must be 1024 / 2.0 regardless of the requested
     1.0s. *)
  let now = scripted_clock [| 0.0; 0.0; 0.5; 1.5; 2.0 |] in
  let ops = ref 0 in
  let rate =
    Harness.Throughput.run_alone ~now ~seconds:1.0 ~batch:1
      ~op:(fun _ _ -> incr ops) ()
  in
  Alcotest.(check int) "one chunk ran" 1024 !ops;
  Alcotest.(check (float 1e-9)) "ops / measured elapsed" 512. rate

let test_run_batched_measured_window () =
  (* multi-domain: now() is called exactly twice (t0 at the start
     barrier, t1 after stop is acknowledged); sleep is a no-op so the
     workers run only for the flag-flip interval.  Whatever they manage
     to do, the denominator must be the scripted t1 - t0 = 2.5s, and
     every counted call must lie inside the acknowledged window. *)
  let now = scripted_clock [| 10.0; 12.5 |] in
  let batch = 4 in
  let calls = Atomic.make 0 in
  (* "sleep" until the workers have demonstrably operated, so the window
     provably contains work without depending on real time *)
  let sleep _ =
    while Atomic.get calls < 8 do
      Domain.cpu_relax ()
    done
  in
  let rate =
    Harness.Throughput.run_batched ~now ~sleep ~domains:2 ~seconds:99.0 ~batch
      ~op:(fun _ _ -> Atomic.incr calls)
      ()
  in
  let counted = float_of_int (batch * Atomic.get calls) in
  Alcotest.(check bool) "workers made progress" true (counted > 0.);
  (* rate * elapsed recovers exactly the operations the workers counted *)
  Alcotest.(check (float 1e-6)) "ops / measured elapsed" counted (rate *. 2.5)

(* {1 Bad harness input fails loudly}

   regression: [~domains:0] returned 0, [~seconds:0.], [nan] or [-1.]
   returned nan on one domain, [~seconds:0.] on two domains returned a
   rate over whatever the workers managed, and [~batch:0] raised
   [Division_by_zero] on one domain and returned 0 on two.  The clock,
   the sleep and the op all raise [Exit]: a refusal must come before
   any of them runs. *)

let refused what f =
  match f () with
  | (_ : float) -> Alcotest.failf "%s: not refused" what
  | exception Invalid_argument _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)

let never () = raise Exit

let batched ~domains ~seconds ~batch () =
  Harness.Throughput.run_batched ~now:never ~sleep:(fun _ -> never ())
    ~domains ~seconds ~batch ~op:(fun _ _ -> never ()) ()

let alone ~seconds ~batch () =
  Harness.Throughput.run_alone ~now:never ~seconds ~batch
    ~op:(fun _ _ -> never ()) ()

let test_refuses_domains () =
  refused "domains 0" (batched ~domains:0 ~seconds:0.1 ~batch:1);
  refused "domains -1" (batched ~domains:(-1) ~seconds:0.1 ~batch:1)

let test_refuses_batch () =
  refused "batch 0, 1 domain" (batched ~domains:1 ~seconds:0.1 ~batch:0);
  refused "batch 0, 2 domains" (batched ~domains:2 ~seconds:0.1 ~batch:0);
  refused "run_alone batch 0" (alone ~seconds:0.1 ~batch:0)

let refuses_seconds seconds () =
  let what d = Printf.sprintf "seconds %g, %s" seconds d in
  refused (what "1 domain") (batched ~domains:1 ~seconds ~batch:1);
  refused (what "2 domains") (batched ~domains:2 ~seconds ~batch:1);
  refused (what "run_alone") (alone ~seconds ~batch:1)

(* regression: a worker whose op raised never acknowledged [stop], so
   a multi-domain run spun forever waiting for it.  The run must end
   and re-raise the op's exception.  The "sleep" waits until domain 1
   has raised, so the failure lies inside the window. *)
let test_raising_op_raises () =
  let raised = Atomic.make false in
  let op d _ =
    if d = 1 then begin
      Atomic.set raised true;
      invalid_arg "op raised on domain 1"
    end
  in
  let sleep _ =
    while not (Atomic.get raised) do
      Domain.cpu_relax ()
    done
  in
  match
    Harness.Throughput.run_batched ~sleep ~domains:2 ~seconds:1.0 ~batch:1 ~op
      ()
  with
  | (_ : float) -> Alcotest.fail "a raising op returned a rate"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "the op's exception" "op raised on domain 1" msg

(* {1 Tables} *)

let test_table_render () =
  let out =
    Harness.Tables.render ~title:"T" ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "has title" true
    (String.length out > 0 && String.sub out 0 4 = "## T");
  (* all data rows present *)
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains out needle))
    [ "| a "; "| bb"; "| 333" ]

let test_table_ragged_rows () =
  (* short rows are padded, long headers accommodated *)
  let out =
    Harness.Tables.render ~title:"T" ~header:[ "col" ] [ [ "x"; "extra" ] ]
  in
  Alcotest.(check bool) "renders" true (String.length out > 0)

(* {1 E7, the native sweep} *)

module I = Harness.Instances
module E7 = Experiments.E7_native

(* Every max register on boxed, and unboxed where the registry builds
   it (all but AAC), algorithm-a also pinned to combining and adaptive
   under Harness.Adaptive.Alg_a, and the two counters with a native
   compile on boxed and unboxed. *)
let test_e7_columns () =
  let plain = [ "boxed"; "unboxed" ] in
  let expected =
    List.concat_map
      (fun (s, i, backends) -> List.map (fun b -> (s, i, b)) backends)
      [ ("max-register", "algorithm-a", plain @ [ "combining"; "adaptive" ]);
        ("max-register", "aac", [ "boxed" ]);
        ("max-register", "aac-unbounded-b1", plain);
        ("max-register", "cas-loop", plain);
        ("counter", "farray", plain);
        ("counter", "naive", plain) ]
  in
  Alcotest.(check int) "the legacy sweep's 12 plus AAC boxed" 13
    (List.length expected);
  Alcotest.(check (list (triple string string string)))
    "one column per instance" (List.sort compare expected)
    (List.sort compare (E7.columns ()))

(* regression: the retired sweep wrote [i * domains + d] from the
   harness's base [i], which restarts at 0 on every pass, so a cell's
   second pass repeated the first pass's values and every repeat
   stopped early.  Two passes of one chunk each (the scripted clock
   lets exactly 1024 / batch calls run): every write of the second
   pass must raise the register. *)
let test_e7_writes_stay_fresh () =
  let reg = Option.get (I.maxreg_unboxed ~n:1 (I.Impl I.Algorithm_a)) in
  let writes = ref 0 and stale = ref 0 in
  let spy =
    { reg with
      write_max =
        (fun ~pid v ->
          incr writes;
          if v <= reg.read_max () then incr stale;
          reg.write_max ~pid v) }
  in
  let op = E7.maxreg_op spy ~domains:1 ~read_pct:50 in
  let pass () =
    ignore
      (Harness.Throughput.run_alone
         ~now:(scripted_clock [| 0.0; 0.0; 0.5; 2.0; 2.0 |])
         ~seconds:1.0 ~batch:E7.batch ~op ()
        : float)
  in
  pass ();
  writes := 0;
  stale := 0;
  pass ();
  Alcotest.(check int) "second pass: half of 1024 ops write" 512 !writes;
  Alcotest.(check int) "second pass: no write repeats or falls below" 0 !stale

let () =
  Alcotest.run "harness"
    [ ( "counting memory",
        [ Alcotest.test_case "counts primitives" `Quick test_counting_memory;
          Alcotest.test_case "isolated instances" `Quick test_counting_wrapper_is_isolated;
          Alcotest.test_case "agrees with sim" `Quick test_counting_agrees_with_sim ] );
      ( "measure",
        [ Alcotest.test_case "steps" `Quick test_measure_steps;
          Alcotest.test_case "max_steps" `Quick test_measure_max_steps;
          Alcotest.test_case "powers" `Quick test_measure_powers ] );
      ( "throughput window",
        [ Alcotest.test_case "run_alone measured elapsed" `Quick
            test_run_alone_measured_window;
          Alcotest.test_case "run_batched measured elapsed" `Quick
            test_run_batched_measured_window ] );
      ( "throughput input",
        [ Alcotest.test_case "domains below 1 refused" `Quick
            test_refuses_domains;
          Alcotest.test_case "batch below 1 refused" `Quick test_refuses_batch;
          Alcotest.test_case "zero seconds refused" `Quick
            (refuses_seconds 0.);
          Alcotest.test_case "nan seconds refused" `Quick
            (refuses_seconds nan);
          Alcotest.test_case "negative seconds refused" `Quick
            (refuses_seconds (-1.));
          Alcotest.test_case "infinite seconds refused" `Quick
            (refuses_seconds infinity);
          Alcotest.test_case "an op raising on one of two domains raises"
            `Quick test_raising_op_raises ] );
      ( "tables",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows ] );
      ( "e7",
        [ Alcotest.test_case
            "columns are the registry's native ones and Alg_a's"
            `Quick test_e7_columns;
          Alcotest.test_case "max-register writes stay fresh across passes"
            `Quick test_e7_writes_stay_fresh ] ) ]
