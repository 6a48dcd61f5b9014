(* The benchmark's own guarantees: a workload does the same work on
   every pass, and its checks can fail. *)

open Bench_suite

let gauge_solo = Runner.shape Runner.Gauge_solo

module Gauge = Native.Make (Subjects.Alg_a) (Subjects.Farray)

(* {1 Stationarity} *)

(* Refresh rounds and CAS attempts per register write over one pass of
   [batches] batches, called as the harness calls them: the iteration
   base restarts at 0 on every pass. *)
let metered_pass ~metrics ~batches write_batch =
  let before = Subjects.tally metrics in
  let writes = ref 0 in
  for i = 0 to batches - 1 do
    writes := !writes + write_batch (i * Subjects.batch)
  done;
  let after = Subjects.tally metrics in
  let per x y = float_of_int (x - y) /. float_of_int !writes in
  ( per after.refresh_rounds before.refresh_rounds,
    per after.cas_attempts before.cas_attempts )

let equal_work (r1, c1) (r2, c2) =
  let close a b = Float.abs (a -. b) <= 0.01 *. Float.abs a in
  r1 > 0. && close r1 r2 && close c1 c2

let test_passes_do_equal_work () =
  let metrics = Subjects.live_metrics ~domains:1 in
  let lp =
    Gauge.loop
      (Gauge.create gauge_solo ~seed:7 ~salt:1 ~n:64 ~reg_metrics:metrics
         ~cnt_metrics:Subjects.no_metrics)
  in
  lp.set_mode Traced;
  let writes () = Stream.total lp.stream Updates - Stream.total lp.stream Increments in
  let write_batch i0 =
    let w0 = writes () in
    lp.op 0 i0;
    writes () - w0
  in
  let p1 = metered_pass ~metrics ~batches:4000 write_batch in
  let p2 = metered_pass ~metrics ~batches:4000 write_batch in
  Alcotest.(check bool) "two passes do equal work" true (equal_work p1 p2)

(* The control: values indexed by the iteration base replay the first
   pass's values, so the second pass's writes are stale and cheap — the
   same comparison must reject that stream. *)
let test_restarting_stream_is_caught () =
  let metrics = Subjects.live_metrics ~domains:1 in
  let reg = Subjects.Alg_a.create ~metrics ~n:64 ~domains:1 in
  let write_batch i0 =
    for k = 0 to Subjects.batch - 1 do
      Subjects.Alg_a.write_max_metered reg ~pid:0 (64 + i0 + k)
    done;
    Subjects.batch
  in
  let p1 = metered_pass ~metrics ~batches:4000 write_batch in
  let p2 = metered_pass ~metrics ~batches:4000 write_batch in
  Alcotest.(check bool) "restarting stream detected" false (equal_work p1 p2)

(* {1 The checks can fail} *)

(* Algorithm A that silently drops every 1000th write. *)
module Lossy = struct
  type t = { reg : Subjects.Alg_a.t; mutable writes : int }

  let create ~metrics ~n ~domains =
    { reg = Subjects.Alg_a.create ~metrics ~n ~domains; writes = 0 }

  let read_max t = Subjects.Alg_a.read_max t.reg

  let write_max t ~pid v =
    t.writes <- t.writes + 1;
    if t.writes mod 1000 <> 0 then Subjects.Alg_a.write_max t.reg ~pid v

  let write_max_metered = write_max
end

module Lossy_gauge = Native.Make (Lossy) (Subjects.Farray)

let failed_pct (lp : Native.loop) =
  for i = 0 to 20_000 - 1 do
    lp.op 0 (i * Subjects.batch)
  done;
  lp.final_check ();
  let s = lp.stream in
  100. *. float_of_int (Stream.total s Failures) /. float_of_int (Stream.total s Checks)

let test_lossy_register_fails () =
  let m = Subjects.no_metrics in
  Alcotest.(check (float 0.)) "real register: no failures" 0.
    (failed_pct
       (Gauge.loop
          (Gauge.create gauge_solo ~seed:3 ~salt:1 ~n:64 ~reg_metrics:m ~cnt_metrics:m)));
  Alcotest.(check bool) "lossy register: failed_pct > 0" true
    (failed_pct
       (Lossy_gauge.loop
          (Lossy_gauge.create gauge_solo ~seed:3 ~salt:1 ~n:64 ~reg_metrics:m ~cnt_metrics:m))
     > 0.)

let test_dpor_pins () =
  let model = Subjects.Model.create () in
  let pass = Model_check.run model in
  Alcotest.(check int) "pinned counts and linearizability hold" 0 pass.failures;
  let perturbed =
    Model_check.run ~pins:(fun c -> Subjects.Model.pinned_classes c + 1) model
  in
  Alcotest.(check int) "a perturbed pin fails" 2 perturbed.failures

let () =
  Alcotest.run "bench-suite"
    [ ( "stationarity",
        [ Alcotest.test_case "passes do equal work" `Quick test_passes_do_equal_work;
          Alcotest.test_case "restarting stream is caught" `Quick
            test_restarting_stream_is_caught ] );
      ( "checks",
        [ Alcotest.test_case "lossy register fails" `Quick test_lossy_register_fails;
          Alcotest.test_case "perturbed DPOR pin fails" `Slow test_dpor_pins ] ) ]
