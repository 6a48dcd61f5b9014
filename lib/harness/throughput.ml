(* Domain-parallel throughput measurement, shared by the native
   experiments (E7, E10b, the dial frontier) and bench/suite.

   Two distortions the obvious loop suffers from, both fixed here:

   - counting through a shared [Atomic.incr] adds an atomic RMW to every
     measured operation — workers count in a local [int ref] and publish
     once, after [stop] flips, so the timed loop contains only the
     operation under test (plus one unavoidable [Atomic.get stop], a
     read-shared cache line);
   - per-domain slots that are adjacent fields of one array share cache
     lines, so even the final publishes (and any future per-op use) ping
     lines between domains — the publish slots are one padded unboxed
     register per domain.

   And two *timing* biases the multi-domain path used to have (both
   inflated the reported rate):

   - the denominator was the requested [seconds], but [Domain.spawn] cost
     and worker startup skew mean the true window differs from the request
     — the window is now measured, from a post-spawn start barrier (all
     workers ready, then released together) to stop-acknowledged;
   - workers kept operating between [Unix.sleepf] returning and their next
     [stop] check, and those operations were counted against the requested
     window — the clock now stops only after every worker has acknowledged
     [stop], so every counted operation lies inside the measured window.

   [?now]/[?sleep] exist so the window arithmetic is testable against a
   scripted clock (test_harness.ml pins the elapsed-time denominator). *)

(* Bad inputs fail before any timing, rather than as a nan, a 0 or a
   rate over an empty window. *)
let check ~domains ~seconds ~batch =
  if domains < 1 then
    invalid_arg (Printf.sprintf "Throughput: domains must be >= 1 (got %d)" domains);
  if batch < 1 then
    invalid_arg (Printf.sprintf "Throughput: batch must be >= 1 (got %d)" batch);
  if not (Float.is_finite seconds && seconds > 0.) then
    invalid_arg
      (Printf.sprintf "Throughput: seconds must be finite and > 0 (got %g)" seconds)

(* Single-domain measurement runs on the *calling* domain, with a deadline
   check instead of a watcher domain flipping a stop flag.  This is not an
   optimization but a correctness point: the OCaml 5 runtime takes a
   domain-alone fast path for atomic RMWs, and spawning even one watcher
   domain switches the whole runtime into multi-domain mode, roughly
   doubling the cost of every CAS/set — the "1 domain" row would then
   measure runtime mode, not the structure.  The deadline read is amortized
   over ~1024 operations. *)
let run_alone ?(now = Unix.gettimeofday) ~seconds ~batch ~(op : int -> int -> unit) () =
  check ~domains:1 ~seconds ~batch;
  let chunk = max 1 (1024 / batch) in
  let deadline = now () +. seconds in
  let done_ops = ref 0 in
  let t0 = now () in
  while now () < deadline do
    for _ = 1 to chunk do
      op 0 !done_ops;
      done_ops := !done_ops + batch
    done
  done;
  let t1 = now () in
  float_of_int !done_ops /. (t1 -. t0)

let run_batched ?(now = Unix.gettimeofday) ?(sleep = Unix.sleepf) ~domains
    ~seconds ~batch ~(op : int -> int -> unit) () =
  check ~domains ~seconds ~batch;
  if domains = 1 then run_alone ~now ~seconds ~batch ~op ()
  else begin
    let ready = Atomic.make 0 in
    let go = Atomic.make false in
    let stop = Atomic.make false in
    let acked = Atomic.make 0 in
    let counts =
      Array.init domains (fun d ->
          Smem.Unboxed_memory.Padded.make ~name:(string_of_int d) 0)
    in
    (* A worker whose [op] raises acknowledges all the same, so the
       stop-acknowledged wait below cannot hang on it; its exception
       comes back out of [Domain.join]. *)
    let workers =
      List.init domains (fun d ->
          Domain.spawn (fun () ->
              Atomic.incr ready;
              while not (Atomic.get go) do
                Domain.cpu_relax ()
              done;
              Fun.protect
                ~finally:(fun () -> Atomic.incr acked)
                (fun () ->
                  let done_ops = ref 0 in
                  while not (Atomic.get stop) do
                    op d !done_ops;
                    done_ops := !done_ops + batch
                  done;
                  Smem.Unboxed_memory.Padded.write counts.(d) !done_ops)))
    in
    (* Start barrier: every worker is spawned and spinning before the
       clock starts, so spawn cost and startup skew are outside the
       window.  [t0] is taken just before releasing them — conservative:
       no counted operation can precede it. *)
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    let t0 = now () in
    Atomic.set go true;
    sleep seconds;
    Atomic.set stop true;
    (* Stop-acknowledged: workers publish their count before acking, so
       once all have acked, every counted operation lies in [t0, t1]. *)
    while Atomic.get acked < domains do
      Domain.cpu_relax ()
    done;
    let t1 = now () in
    (* join every worker before re-raising the first one's exception *)
    let failures =
      List.filter_map
        (fun w -> match Domain.join w with () -> None | exception e -> Some e)
        workers
    in
    (match failures with e :: _ -> raise e | [] -> ());
    let total =
      Array.fold_left
        (fun acc c -> acc + Smem.Unboxed_memory.Padded.read c)
        0 counts
    in
    float_of_int total /. (t1 -. t0)
  end

(* Centralized so callers (experiments, the suite) need no direct
   [Domain] reference — rule R1 of bin/lint.exe confines the Domain API
   to this module. *)
let recommended_domains ?(floor = 1) ?(cap = max_int) () =
  max floor (min cap (Domain.recommended_domain_count ()))
