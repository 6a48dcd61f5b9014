(* Tests of the flat-combining arena itself (Smem.Combine): validation,
   the single-domain bypass, stats, elimination tally, and the parking
   backoff.  Pinned combining built on it — Algorithm A's adaptive
   instance with every update on its combining path — is one more input
   to the differential, allocation and parallel suites of
   test_adaptive.ml; linearizability of combining histories under chaos
   lives in test_chaos.ml. *)

module C = Smem.Combine

(* {1 Arena semantics} *)

let test_create_validates () =
  Alcotest.check_raises "domains = 0 refused"
    (Invalid_argument "Combine.create: domains out of [1, 62]") (fun () ->
      ignore (C.create ~domains:0 () : C.t));
  Alcotest.check_raises "domains = 63 refused"
    (Invalid_argument "Combine.create: domains out of [1, 62]") (fun () ->
      ignore (C.create ~domains:(C.max_domains + 1) () : C.t));
  let t = C.create ~domains:C.max_domains () in
  Alcotest.(check int) "domains accessor" C.max_domains (C.domains t)

let test_submit_validates () =
  let t = C.create ~domains:2 () in
  let apply _ _ = () in
  Alcotest.check_raises "sentinel op refused"
    (Invalid_argument "Combine.submit: op is the empty sentinel") (fun () ->
      C.submit t ~domain:0 ~apply min_int);
  Alcotest.check_raises "domain out of range refused"
    (Invalid_argument "Combine.submit: bad domain") (fun () ->
      C.submit t ~domain:2 ~apply 1)

let test_single_domain_bypass () =
  let t = C.create ~domains:1 () in
  let applied = ref [] in
  let apply d op = applied := (d, op) :: !applied in
  C.submit t ~domain:0 ~apply 7;
  C.submit t ~domain:0 ~apply 9;
  Alcotest.(check (list (pair int int)))
    "ops applied directly, in order" [ (0, 7); (0, 9) ]
    (List.rev !applied);
  (* the bypass takes no lock and records nothing *)
  Alcotest.(check int) "no lock acquisitions" 0 (C.stats t).C.lock_acquisitions;
  Alcotest.(check int) "no batches" 0 (C.stats t).C.batches

let test_solo_submit_stats () =
  let t = C.create ~domains:2 () in
  let total = ref 0 in
  let apply _ op = total := !total + op in
  C.submit t ~domain:0 ~apply 5;
  C.submit t ~domain:1 ~apply 6;
  Alcotest.(check int) "both ops applied" 11 !total;
  let s = C.stats t in
  Alcotest.(check int) "one lock acquisition per solo submit" 2
    s.C.lock_acquisitions;
  (* a drain of one op is not a batch: batches/combined_ops count only
     genuine combining (>= 2 ops per drain) *)
  Alcotest.(check int) "no batches solo" 0 s.C.batches;
  Alcotest.(check int) "no combined ops solo" 0 s.C.combined_ops;
  Alcotest.(check int) "batch_max stays 0" 0 s.C.batch_max

let test_elimination_and_reset () =
  let t = C.create ~domains:2 () in
  C.record_elimination t ~domain:0;
  C.record_elimination t ~domain:1;
  Alcotest.(check int) "eliminations tallied" 2 (C.stats t).C.eliminations;
  C.reset_stats t;
  Alcotest.(check bool) "reset zeroes everything" true
    (C.stats t = C.zero_stats)

(* {1 Parking backoff (scripted clock)}

   The park loop must sleep yield_s, 2*yield_s, 4*yield_s, ... capped at
   yield_s * 2^6, re-checking slot and lock before every sleep.  The old
   code slept a constant 50 µs and reset the spin budget after every
   sleep, so a long-parked domain reburned its whole spin allowance
   between naps.  A scripted [~sleep] records the exact durations the
   arena asks for — no wall clock involved. *)

let test_create_validates_yield () =
  Alcotest.check_raises "yield_s = 0 refused"
    (Invalid_argument "Combine.create: non-positive yield_s") (fun () ->
      ignore (C.create ~yield_s:0. ~domains:2 () : C.t));
  Alcotest.check_raises "negative yield_s refused"
    (Invalid_argument "Combine.create: non-positive yield_s") (fun () ->
      ignore (C.create ~yield_s:(-1e-6) ~domains:2 () : C.t))

let test_backoff_doubles_and_caps () =
  let y = 0.001 in
  (* written only by the parked domain (the main thread below) *)
  let sleeps = ref [] in
  let release = Atomic.make false in
  let in_apply = Atomic.make false in
  let sleep s =
    sleeps := s :: !sleeps;
    if List.length !sleeps >= 10 then Atomic.set release true
  in
  let t = C.create ~spin:16 ~yield_s:y ~sleep ~domains:2 () in
  let total = Atomic.make 0 in
  (* the apply runs while holding the combiner lock; gating it keeps the
     lock held until the parked domain has recorded enough sleeps *)
  let gate_apply _ op =
    Atomic.set in_apply true;
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done;
    ignore (Atomic.fetch_and_add total op : int)
  in
  let d = Domain.spawn (fun () -> C.submit t ~domain:0 ~apply:gate_apply 1) in
  while not (Atomic.get in_apply) do
    Domain.cpu_relax ()
  done;
  (* publishes while the lock is held inside the gated apply: must park *)
  C.submit t ~domain:1 ~apply:gate_apply 2;
  Domain.join d;
  let recorded = List.rev !sleeps in
  Alcotest.(check bool) "parked at least 10 times" true
    (List.length recorded >= 10);
  List.iteri
    (fun i s ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "sleep %d doubles then caps" i)
        (y *. float_of_int (1 lsl min i 6))
        s)
    recorded;
  Alcotest.(check int) "both ops applied" 3 (Atomic.get total)

let () =
  Alcotest.run "combining"
    [ ( "arena",
        [ Alcotest.test_case "create validates" `Quick test_create_validates;
          Alcotest.test_case "submit validates" `Quick test_submit_validates;
          Alcotest.test_case "single-domain bypass" `Quick
            test_single_domain_bypass;
          Alcotest.test_case "solo submit stats" `Quick test_solo_submit_stats;
          Alcotest.test_case "elimination tally and reset" `Quick
            test_elimination_and_reset;
          Alcotest.test_case "yield_s validated" `Quick
            test_create_validates_yield;
          Alcotest.test_case "parking backoff doubles then caps" `Quick
            test_backoff_doubles_and_caps ] ) ]
