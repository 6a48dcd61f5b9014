(* Tests of the native (OCaml 5 Atomic + Domain) backend: the boxed
   compile of the same sources, over native atomics, running truly in
   parallel.  These are stress tests of safety properties that survive
   real parallelism: no lost increments, the maximum always wins,
   snapshots converge. *)

let domains_available = max 2 (min 4 (Domain.recommended_domain_count ()))

let in_domains k f =
  let ds = List.init k (fun i -> Domain.spawn (fun () -> f i)) in
  List.iter Domain.join ds

(* {1 Max registers} *)

let test_maxreg_parallel impl () =
  let k = domains_available in
  let per_domain = 2_000 in
  let reg =
    Harness.Instances.maxreg_native ~n:k ~bound:(k * per_domain * 2) impl
  in
  in_domains k (fun i ->
      for v = 1 to per_domain do
        reg.write_max ~pid:i ((v * k) + i)
      done);
  (* the global maximum is the largest value any domain wrote *)
  let expected = (per_domain * k) + (k - 1) in
  Alcotest.(check int)
    (Harness.Instances.maxreg_name impl)
    expected (reg.read_max ())

let test_maxreg_readers_and_writers impl () =
  let k = domains_available in
  let writers = max 1 (k - 1) in
  let bound = 100_000 in
  let reg = Harness.Instances.maxreg_native ~n:k ~bound impl in
  let monotone = Atomic.make true in
  in_domains k (fun i ->
      if i < writers then
        for v = 1 to 1_000 do
          reg.write_max ~pid:i ((v * writers) + i)
        done
      else begin
        (* reader: observed values must be non-decreasing *)
        let last = ref 0 in
        for _ = 1 to 5_000 do
          let v = reg.read_max () in
          if v < !last then Atomic.set monotone false;
          last := v
        done
      end);
  Alcotest.(check bool)
    (Harness.Instances.maxreg_name impl ^ " reads monotone")
    true (Atomic.get monotone)

(* {1 Counters} *)

let test_counter_parallel impl () =
  let k = domains_available in
  let per_domain = 1_000 in
  let c =
    Harness.Instances.counter_native ~n:k ~bound:(k * per_domain * 2) impl
  in
  in_domains k (fun i ->
      for _ = 1 to per_domain do
        c.increment ~pid:i
      done);
  Alcotest.(check int)
    (Harness.Instances.counter_name impl)
    (k * per_domain) (c.read ())

let test_counter_reads_bounded impl () =
  (* While increments are in flight, every read is between 0 and the total;
     after joining, the read is exact. *)
  let k = domains_available in
  let writers = max 1 (k - 1) in
  let per_domain = 500 in
  let c =
    Harness.Instances.counter_native ~n:k ~bound:(writers * per_domain * 2) impl
  in
  let in_range = Atomic.make true in
  in_domains k (fun i ->
      if i < writers then
        for _ = 1 to per_domain do
          c.increment ~pid:i
        done
      else
        for _ = 1 to 2_000 do
          let v = c.read () in
          if v < 0 || v > writers * per_domain then Atomic.set in_range false
        done);
  Alcotest.(check bool) "reads in range" true (Atomic.get in_range);
  Alcotest.(check int) "final exact" (writers * per_domain) (c.read ())

(* {1 Snapshots} *)

let test_snapshot_parallel impl () =
  let k = domains_available in
  let per_domain = 300 in
  let s = Harness.Instances.snapshot_native ~n:k impl in
  in_domains k (fun i ->
      for v = 1 to per_domain do
        s.update ~pid:i v
      done);
  Alcotest.(check (array int))
    (Harness.Instances.snapshot_name impl)
    (Array.make k per_domain) (s.scan ())

let test_snapshot_segments_monotone () =
  (* Writers publish increasing values; concurrent scans must never see a
     segment decrease (a scan regression would indicate torn propagation in
     the f-array tree). *)
  let k = domains_available in
  let writers = max 1 (k - 1) in
  let s = Harness.Instances.snapshot_native ~n:k Harness.Instances.Farray_snapshot in
  let ok = Atomic.make true in
  in_domains k (fun i ->
      if i < writers then
        for v = 1 to 500 do
          s.update ~pid:i v
        done
      else begin
        let last = Array.make k 0 in
        for _ = 1 to 2_000 do
          let snap = s.scan () in
          Array.iteri
            (fun j v -> if v < last.(j) then Atomic.set ok false else last.(j) <- v)
            snap
        done
      end);
  Alcotest.(check bool) "segments monotone across scans" true (Atomic.get ok)

let maxreg_impls =
  [ Harness.Instances.Algorithm_a;
    Harness.Instances.Aac_maxreg;
    Harness.Instances.B1_maxreg;
    Harness.Instances.Cas_maxreg ]

let counter_impls =
  [ Harness.Instances.Aac_counter;
    Harness.Instances.Farray_counter;
    Harness.Instances.Naive_counter ]

let snapshot_impls =
  [ Harness.Instances.Afek; Harness.Instances.Farray_snapshot ]

let () =
  Alcotest.run "native"
    [ ( "maxreg",
        List.map
          (fun i ->
            Alcotest.test_case (Harness.Instances.maxreg_name i) `Quick
              (test_maxreg_parallel i))
          maxreg_impls
        @ List.map
            (fun i ->
              Alcotest.test_case
                (Harness.Instances.maxreg_name i ^ " monotone reads")
                `Quick (test_maxreg_readers_and_writers i))
            maxreg_impls );
      ( "counter",
        List.map
          (fun i ->
            Alcotest.test_case (Harness.Instances.counter_name i) `Quick
              (test_counter_parallel i))
          counter_impls
        @ List.map
            (fun i ->
              Alcotest.test_case
                (Harness.Instances.counter_name i ^ " bounded reads")
                `Quick (test_counter_reads_bounded i))
            counter_impls );
      ( "snapshot",
        List.map
          (fun i ->
            Alcotest.test_case (Harness.Instances.snapshot_name i) `Quick
              (test_snapshot_parallel i))
          snapshot_impls
        @ [ Alcotest.test_case "segments monotone" `Quick
              test_snapshot_segments_monotone ] ) ]
