(* Tests of the liveness audits (E9's machinery): wait-free implementations
   complete within their solo bounds under interference; the CAS-loop
   register and the double-collect scan do not. *)

open Memsim

let test_solo_completion_all_maxregs () =
  List.iter
    (fun impl ->
      let session = Session.create () in
      let reg = Harness.Instances.maxreg_sim session ~n:6 ~bound:512 impl in
      let make_body pid () = reg.write_max ~pid (pid * 17 mod 512) in
      let r =
        Harness.Liveness.solo_completion_bound ~scenarios:25 session ~n:6
          ~make_body ()
      in
      Alcotest.(check bool)
        (Harness.Instances.maxreg_name impl ^ " completes solo")
        true r.Harness.Liveness.all_completed)
    Harness.Instances.all_maxregs

let test_wait_free_register_bounded_under_interference () =
  (* Algorithm A's WriteMax costs the same with or without an adversarial
     interferer (wait-freedom), up to helping. *)
  let session = Session.create () in
  let reg =
    Harness.Instances.maxreg_sim session ~n:4 ~bound:4096
      Harness.Instances.Algorithm_a
  in
  let solo =
    Session.reset_steps session;
    reg.write_max ~pid:2 3_000;
    Session.direct_steps session
  in
  let interfered =
    Harness.Liveness.interference_bound ~victim_budget:1_000 session
      ~victim_body:(fun () -> reg.write_max ~pid:0 4_000)
      ~interferer_body:
        (let v = ref 0 in
         fun () -> incr v; reg.write_max ~pid:1 !v)
      ()
  in
  Alcotest.(check bool) "completed" true
    interfered.Harness.Liveness.victim_completed;
  Alcotest.(check bool)
    (Printf.sprintf "steps %d within 2x solo %d"
       interfered.Harness.Liveness.victim_steps solo)
    true
    (interfered.Harness.Liveness.victim_steps <= 2 * solo)

let test_cas_loop_not_wait_free () =
  let session = Session.create () in
  let reg =
    Harness.Instances.maxreg_sim session ~n:4 ~bound:1_000_000
      Harness.Instances.Cas_maxreg
  in
  let interfered =
    Harness.Liveness.interference_bound ~victim_budget:500 session
      ~victim_body:(fun () -> reg.write_max ~pid:0 999_999)
      ~interferer_body:
        (let v = ref 0 in
         fun () -> incr v; reg.write_max ~pid:1 !v)
      ()
  in
  (* the victim retries for as long as the interferer keeps winning CAS
     races: step count far exceeds the 2-step solo cost *)
  Alcotest.(check bool)
    (Printf.sprintf "victim burned %d steps (solo needs 2)"
       interfered.Harness.Liveness.victim_steps)
    true
    (interfered.Harness.Liveness.victim_steps >= 50)

let test_double_collect_scan_not_wait_free () =
  let session = Session.create () in
  let module S = Snapshots.Double_collect in
  let snap =
    Boxed.Raw.with_memory (Smem.Sim_memory.bind session)
      (S.create ~max_collects:1_000_000 ~n:2)
  in
  let interfered =
    Harness.Liveness.interference_bound ~victim_budget:1_000 session
      ~victim_body:(fun () -> ignore (S.scan snap))
      ~interferer_body:
        (let v = ref 0 in
         fun () -> incr v; S.update snap ~pid:1 !v)
      ()
  in
  Alcotest.(check bool) "scan starved" false
    interfered.Harness.Liveness.victim_completed

let test_afek_scan_wait_free_under_interference () =
  let session = Session.create () in
  let s =
    Harness.Instances.snapshot_sim session ~n:2 Harness.Instances.Afek
  in
  let interfered =
    Harness.Liveness.interference_bound ~victim_budget:1_000 session
      ~victim_body:(fun () -> ignore (s.scan ()))
      ~interferer_body:
        (let v = ref 0 in
         fun () -> incr v; s.update ~pid:1 !v)
      ()
  in
  Alcotest.(check bool) "afek scan completes under interference" true
    interfered.Harness.Liveness.victim_completed

let () =
  Alcotest.run "liveness"
    [ ( "solo",
        [ Alcotest.test_case "all max registers complete" `Quick
            test_solo_completion_all_maxregs ] );
      ( "interference",
        [ Alcotest.test_case "algorithm A bounded" `Quick
            test_wait_free_register_bounded_under_interference;
          Alcotest.test_case "cas-loop unbounded" `Quick test_cas_loop_not_wait_free;
          Alcotest.test_case "double-collect starves" `Quick
            test_double_collect_scan_not_wait_free;
          Alcotest.test_case "afek completes" `Quick
            test_afek_scan_wait_free_under_interference ] ) ]
