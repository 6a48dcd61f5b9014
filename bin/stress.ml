(* Randomized linearizability stress-testing tool.

     stress --object maxreg --impl algorithm-a --procs 4 --seeds 1000
     stress --object counter --impl farray --readers 2
     stress --object snapshot --impl afek
     stress --impl algorithm-a --faults 'crash:0@2,stall:1@0+50'
     stress --impl cas-loop --procs 3 --fault-sweep
     stress --chaos 42

   Each seed builds a fresh instance, runs a random schedule over mixed
   operations, extracts the history and checks it with the Wing-Gong
   checker.  Violating seeds are printed (and the exit code is non-zero),
   making this usable for soak testing and for bisecting new
   implementations.  Keep --procs small: checking cost grows exponentially
   with concurrency.

   --faults runs every seed under a fault plan (crashes and spurious CAS
   failures instrument the bodies; stalls and halts gate the scheduler);
   surviving histories are checked as-is — a crashed operation is pending
   and may take effect or be dropped (crash-restricted linearizability).
   On violation both the plan and the schedule are minimized to a
   replayable repro.  --fault-sweep verifies every single-crash plan
   exhaustively under DPOR and every single-stall plan under the gated
   explorer.  --chaos leaves the simulator entirely: multi-domain runs on
   the native backend under deterministic preemption/GC injection. *)

open Memsim

(* A scenario bundles everything needed both to run a random schedule and
   to replay/shrink it afterwards: deterministic per-pid bodies over one
   session, plus the linearizability check. *)
type scenario = {
  session : Session.t;
  make_body : int -> unit -> unit;
  check : Trace.t -> bool;
}

let scenario_maxreg ~impl ~procs ~readers ~value_range ~seed =
  let session = Session.create () in
  let reg =
    Harness.Annotate.max_register session
      (Harness.Instances.maxreg_sim session ~n:procs ~bound:value_range impl)
  in
  let rng = Random.State.make [| seed |] in
  let vals = Array.init procs (fun _ -> Random.State.int rng value_range) in
  { session;
    make_body =
      (fun pid () ->
        if pid < procs - readers then reg.write_max ~pid vals.(pid)
        else ignore (reg.read_max ()));
    check =
      Linearize.Checker.check_trace (module Linearize.Spec.Max_register)
        ~n:procs }

let scenario_counter ~impl ~procs ~readers ~seed:_ =
  let session = Session.create () in
  let c =
    Harness.Annotate.counter session
      (Harness.Instances.counter_sim session ~n:procs ~bound:64 impl)
  in
  { session;
    make_body =
      (fun pid () ->
        if pid < procs - readers then c.increment ~pid else ignore (c.read ()));
    check =
      Linearize.Checker.check_trace (module Linearize.Spec.Counter) ~n:procs }

let scenario_snapshot ~impl ~procs ~readers ~value_range ~seed =
  let session = Session.create () in
  let s =
    Harness.Annotate.snapshot session
      (Harness.Instances.snapshot_sim session ~n:procs impl)
  in
  let rng = Random.State.make [| seed |] in
  let vals = Array.init procs (fun _ -> 1 + Random.State.int rng value_range) in
  { session;
    make_body =
      (fun pid () ->
        if pid < procs - readers then s.update ~pid vals.(pid)
        else ignore (s.scan ()));
    check =
      Linearize.Checker.check_trace (module Linearize.Spec.Snapshot) ~n:procs }

(* One faulted (or unfaulted) random run: crashes/CAS-failures instrument
   the bodies, stalls/halts gate the scheduler.  Deterministic in
   (scenario, plan, seed), which is what plan minimization replays. *)
let run_once { session; make_body; check } ~plan ~procs ~seed =
  let sched =
    Replay.replay session ~n:procs ~make_body:(Faults.instrument plan make_body)
      ~schedule:[] ()
  in
  Faults.run_random ~seed ~max_events:1_000_000 sched (Faults.gate plan);
  let trace = Scheduler.finish sched in
  (check trace, trace)

(* Run one random schedule; on violation, minimize the fault plan (does
   the same seed still fail under a smaller plan?) and then delta-debug
   the schedule down to a locally-minimal repro and print both.  Returns
   whether the seed passed plus the trace worth keeping for --trace
   export: the minimized violating execution, or the full passing one. *)
let run_seed ({ session; make_body; check } as scen) ~plan ~procs ~seed =
  let ok, trace = run_once scen ~plan ~procs ~seed in
  if ok then (true, trace)
  else begin
    let min_plan =
      if plan = [] then []
      else
        Faults.minimize
          ~test:(fun p -> not (fst (run_once scen ~plan:p ~procs ~seed)))
          plan
    in
    let _, trace =
      if min_plan == plan then (false, trace)
      else run_once scen ~plan:min_plan ~procs ~seed
    in
    let body = Faults.instrument min_plan make_body in
    let minimal, min_trace =
      Shrink.counterexample session ~n:procs ~make_body:body ~check
        (Trace.schedule trace)
    in
    Printf.printf
      "seed %d: VIOLATION; minimized to %d events (from %d).\n\
       replayable schedule: %s\n"
      seed
      (List.length minimal)
      (List.length (Trace.schedule trace))
      (String.concat " " (List.map string_of_int minimal));
    if plan <> [] then
      Printf.printf "replayable fault plan: --faults '%s' (given: '%s')\n"
        (Faults.to_string min_plan) (Faults.to_string plan);
    Fmt.pr "%a@." Trace.pp min_trace;
    (false, min_trace)
  end

let lookup_impl kind impl_name =
  let fail () =
    `Error
      (false,
       Printf.sprintf "unknown %s implementation %S" kind impl_name)
  in
  match kind with
  | "maxreg" -> (
    match
      List.find_opt
        (fun i -> Harness.Instances.maxreg_name i = impl_name)
        (Harness.Instances.Algorithm_a_literal :: Harness.Instances.all_maxregs)
    with
    | Some i -> `Maxreg i
    | None -> fail ())
  | "counter" -> (
    match
      List.find_opt
        (fun i -> Harness.Instances.counter_name i = impl_name)
        Harness.Instances.all_counters
    with
    | Some i -> `Counter i
    | None -> fail ())
  | "snapshot" -> (
    match
      List.find_opt
        (fun i -> Harness.Instances.snapshot_name i = impl_name)
        Harness.Instances.all_snapshots
    with
    | Some i -> `Snapshot i
    | None -> fail ())
  | _ -> `Error (false, Printf.sprintf "unknown object kind %S" kind)

(* {1 Exhaustive single-fault sweeps}

   Every 1-crash plan under DPOR (a crash is a program transformation, so
   DPOR's pruning stays sound over the instrumented bodies) and every
   1-stall plan under the gated explorer.  Surviving histories must
   linearize in every execution.  Exhaustive: keep --procs small. *)

let fault_sweep target kind impl_name procs readers value_range =
  let scen =
    match target with
    | `Maxreg i -> scenario_maxreg ~impl:i ~procs ~readers ~value_range ~seed:1
    | `Counter i -> scenario_counter ~impl:i ~procs ~readers ~seed:1
    | `Snapshot i -> scenario_snapshot ~impl:i ~procs ~readers ~value_range ~seed:1
  in
  let counts = Explore.solo_counts scen.session ~n:procs ~make_body:scen.make_body in
  let crash_plans = Faults.single_crash_plans ~counts in
  (* stalls starting beyond the longest possible execution never bind *)
  let max_point = Array.fold_left ( + ) 0 counts in
  let stall_points = 5 in
  let stall_plans =
    Faults.single_stall_plans ~n:procs ~max_point ~points:stall_points
  in
  let bad = ref [] in
  let classes = ref 0 in
  let scheds = ref 0 in
  List.iter
    (fun plan ->
      let ok = ref true in
      let stats =
        Dpor.run scen.session ~n:procs
          ~make_body:(Faults.instrument plan scen.make_body)
          ~on_complete:(fun t -> if not (scen.check t) then ok := false; true)
          ()
      in
      classes := !classes + stats.Dpor.explored;
      if stats.Dpor.truncated || not !ok then bad := plan :: !bad)
    crash_plans;
  List.iter
    (fun plan ->
      let ok = ref true in
      let stats =
        Faults.explore scen.session ~n:procs ~make_body:scen.make_body ~plan
          ~max_events:(2 * (max_point + stall_points) + 64)
          ~on_complete:(fun t -> if not (scen.check t) then ok := false; true)
          ()
      in
      scheds := !scheds + stats.Explore.explored;
      if stats.Explore.truncated || not !ok then bad := plan :: !bad)
    stall_plans;
  Printf.printf
    "%s/%s fault sweep, %d processes (%d readers): %d crash plans (%d dpor \
     classes), %d stall plans (%d schedules): %d violating plans%s\n"
    kind impl_name procs readers
    (List.length crash_plans)
    !classes
    (List.length stall_plans)
    !scheds
    (List.length !bad)
    (match !bad with
     | [] -> ""
     | ps ->
       ": "
       ^ String.concat "; "
           (List.map (fun p -> "--faults '" ^ Faults.to_string p ^ "'")
              (List.rev ps)));
  if !bad = [] then `Ok () else `Error (false, "fault sweep found violations")

let stress kind impl_name procs readers seeds value_range trace_file faults_str =
  match (lookup_impl kind impl_name, Faults.parse faults_str) with
  | (`Error _ as e), _ -> e
  | _, Error msg -> `Error (false, "bad --faults plan: " ^ msg)
  | ((`Maxreg _ | `Counter _ | `Snapshot _) as target), Ok plan ->
    let violations = ref [] in
    (* For --trace: the first minimized violating execution wins (that is
       the one worth staring at in a viewer); otherwise the last passing
       seed's trace, so the flag always produces a file. *)
    let violation_trace = ref None in
    let last_trace = ref None in
    for seed = 1 to seeds do
      let scen =
        match target with
        | `Maxreg i -> scenario_maxreg ~impl:i ~procs ~readers ~value_range ~seed
        | `Counter i -> scenario_counter ~impl:i ~procs ~readers ~seed
        | `Snapshot i ->
          scenario_snapshot ~impl:i ~procs ~readers ~value_range ~seed
      in
      let ok, trace = run_seed scen ~plan ~procs ~seed in
      if ok then last_trace := Some trace
      else begin
        violations := seed :: !violations;
        if !violation_trace = None then violation_trace := Some trace
      end
    done;
    Printf.printf
      "%s/%s: %d seeds, %d processes (%d readers)%s: %d violations%s\n"
      kind impl_name seeds procs readers
      (if plan = [] then ""
       else Printf.sprintf " under faults '%s'" (Faults.to_string plan))
      (List.length !violations)
      (match !violations with
       | [] -> ""
       | vs ->
         " at seeds "
         ^ String.concat ", " (List.map string_of_int (List.rev vs)));
    (match trace_file with
     | None -> ()
     | Some path -> (
       match (!violation_trace, !last_trace) with
       | Some t, _ ->
         Obs.Trace_export.to_file
           ~name:(Printf.sprintf "%s/%s minimized violation" kind impl_name)
           path t;
         Printf.printf "wrote Chrome trace of the minimized violation to %s\n"
           path
       | None, Some t ->
         Obs.Trace_export.to_file
           ~name:(Printf.sprintf "%s/%s (no violation; last seed)" kind impl_name)
           path t;
         Printf.printf "wrote Chrome trace of the last (passing) seed to %s\n"
           path
       | None, None -> ()));
    if !violations = [] then `Ok () else `Error (false, "violations found")

(* {1 Native chaos mode}

   Leaves the simulator entirely: real domains over the boxed native
   backend, with deterministic preemption/GC injection at every memory-op
   boundary (Harness.Chaos).  Two layers: short stamped bursts whose full
   histories go through the Wing-Gong checker, then invariant runs at
   scale (exact counter totals, monotone max-register reads, per-segment
   monotone snapshot scans) where complete histories would be far beyond
   the checker's reach. *)

let chaos ~seed ~ops =
  let domains = 4 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let metrics = Obs.Metrics.create ~domains () in
  let lin_maxreg h =
    Linearize.Checker.check (module Linearize.Spec.Max_register) ~n:3 h
  in
  let lin_counter h =
    Linearize.Checker.check (module Linearize.Spec.Counter) ~n:3 h
  in
  (* aggressive rates for the short bursts, so every burst sees faults *)
  let burst_cfg s =
    Harness.Chaos.config ~yield_ppm:200_000 ~storm:32 ~gc_ppm:50_000
      ~gc_bytes:2048 ~metrics ~seed:s ()
  in
  (* Algorithm A under dispatch, injection at op boundaries: storms can
     park a domain right after it published to its arena slot, released
     the combiner lock or crossed an epoch boundary.  Pinned combining
     runs [update_combining]; adaptive runs [write_max] twice: the
     default policy (dispatch live, flips rare at burst scale), then the
     flip-forcing {!Harness.Adaptive.Policy.thrash}, so the mode flips
     INSIDE the burst and storms land astride the epoch lock. *)
  let module A = Harness.Adaptive.Alg_a in
  let dispatched t update : Maxreg.Max_register.instance =
    { read_max = (fun () -> A.read_max t); write_max = update t }
  in
  let dispatch_bursts =
    [ ("combining", None, A.update_combining);
      ("adaptive", None, A.write_max);
      ("adaptive thrashing", Some Harness.Adaptive.Policy.thrash, A.write_max) ]
  in
  let burst_seeds = List.init 8 (fun i -> seed + i) in
  let bursts = ref 0 in
  let checked ok fmt =
    incr bursts;
    Printf.ksprintf (fun msg -> if not ok then fail "%s" msg) fmt
  in
  List.iter
    (fun s ->
      let c = burst_cfg s in
      let reg =
        Harness.Chaos.maxreg c ~n:3 ~bound:64 Harness.Instances.Algorithm_a
      in
      checked
        (lin_maxreg
           (Harness.Chaos.burst_maxreg c ~domains:3 ~ops_per_domain:8 reg))
        "maxreg burst (seed %d) not linearizable" s;
      let cnt =
        Harness.Chaos.counter c ~n:3 ~bound:64 Harness.Instances.Farray_counter
      in
      checked
        (lin_counter
           (Harness.Chaos.burst_counter c ~domains:3 ~ops_per_domain:8 cnt))
        "counter burst (seed %d) not linearizable" s;
      let sn =
        Harness.Chaos.snapshot c ~n:3 Harness.Instances.Farray_snapshot
      in
      let h = Harness.Chaos.burst_snapshot c ~domains:3 ~ops_per_domain:6 sn in
      checked
        (Linearize.Checker.check (module Linearize.Spec.Snapshot) ~n:3 h)
        "snapshot burst (seed %d) not linearizable" s;
      List.iter
        (fun (label, policy, update) ->
          let t = A.create ?policy ~n:3 ~domains:3 () in
          let reg = Harness.Chaos.instrument_maxreg c (dispatched t update) in
          checked
            (lin_maxreg
               (Harness.Chaos.burst_maxreg c ~domains:3 ~ops_per_domain:8 reg))
            "%s algorithm-a burst (seed %d) not linearizable" label s)
        dispatch_bursts)
    burst_seeds;
  (* invariant runs at scale, production injection rates: exact totals
     and monotone maxima on the boxed structures, and Algorithm A's
     maxima through the arena protocol and through hundreds of
     mixed-mode windows under a flip-forcing adaptive policy *)
  let c = Harness.Chaos.config ~metrics ~seed () in
  let per_domain = max 1 (ops / domains) in
  let expect = (per_domain * domains) + (domains - 1) in
  let scale_counter label (cnt : Counters.Counter.instance) =
    let (_ : unit array) =
      Harness.Chaos.Inject.spawn_indexed domains (fun pid ->
          for _ = 1 to per_domain do
            cnt.increment ~pid
          done)
    in
    if cnt.read () <> domains * per_domain then
      fail "%scounter total %d, expected %d" label (cnt.read ())
        (domains * per_domain)
  in
  let scale_maxreg label (reg : Maxreg.Max_register.instance) =
    let reads_monotone = ref true in
    let (_ : unit array) =
      Harness.Chaos.Inject.spawn_indexed domains (fun pid ->
          if pid = 0 then begin
            let last = ref 0 in
            for _ = 1 to per_domain do
              let v = reg.read_max () in
              if v < !last then reads_monotone := false;
              last := v
            done
          end
          else
            for v = 1 to per_domain do
              reg.write_max ~pid ((v * domains) + pid)
            done)
    in
    if not !reads_monotone then fail "%smax-register reads went backwards" label;
    if reg.read_max () <> expect then
      fail "%sfinal maximum %d, expected %d" label (reg.read_max ()) expect
  in
  scale_counter ""
    (Harness.Chaos.counter c ~n:domains ~bound:(1 lsl 30)
       Harness.Instances.Farray_counter);
  scale_maxreg ""
    (Harness.Chaos.maxreg c ~n:domains ~bound:(1 lsl 30)
       Harness.Instances.Algorithm_a);
  let sn =
    Harness.Chaos.snapshot c ~n:domains Harness.Instances.Farray_snapshot
  in
  let scans_monotone = ref true in
  let (_ : unit array) =
    Harness.Chaos.Inject.spawn_indexed domains (fun pid ->
        if pid = 0 then begin
          (* single-writer segments written in increasing order: every
             component must be non-decreasing across successive scans *)
          let last = Array.make domains 0 in
          for _ = 1 to per_domain do
            let v = sn.scan () in
            Array.iteri
              (fun i x ->
                if x < last.(i) then scans_monotone := false;
                last.(i) <- x)
              v
          done
        end
        else
          for v = 1 to per_domain do
            sn.update ~pid v
          done)
  in
  if not !scans_monotone then fail "snapshot scans went backwards";
  let flip_policy = { Harness.Adaptive.Policy.thrash with epoch_ops = 64 } in
  let dispatch_scale label ?policy update =
    let t = A.create ?policy ~n:domains ~domains () in
    scale_maxreg label (Harness.Chaos.instrument_maxreg c (dispatched t update));
    t
  in
  let creg = dispatch_scale "combining " A.update_combining in
  let areg = dispatch_scale "adaptive " ~policy:flip_policy A.write_max in
  let areport = A.report areg in
  if areport.Harness.Adaptive.epoch_flips = 0 then
    fail "adaptive maxreg never flipped under the flip-forcing policy";
  let cs = Smem.Combine.stats (A.arena creg) in
  let t = Obs.Metrics.totals metrics in
  Printf.printf
    "chaos seed %d: %d bursts checked, %d ops/structure over %d domains\n\
     injected: %d yield storms, %d gc pressure events, %d stalls\n\
     combining (scale runs): %d ops in %d batches (max %d), %d eliminations, \
     %d lock acquisitions\n\
     adaptive (scale runs): maxreg %d flips over %d epochs (%.1f%% \
     combining)\n"
    seed !bursts (domains * per_domain) domains t.Obs.Metrics.fault_yields
    t.Obs.Metrics.fault_gcs t.Obs.Metrics.fault_stalls
    cs.Smem.Combine.combined_ops cs.batches cs.batch_max cs.eliminations
    cs.lock_acquisitions
    areport.Harness.Adaptive.epoch_flips areport.Harness.Adaptive.epochs
    areport.Harness.Adaptive.combining_ops_pct;
  match List.rev !failures with
  | [] ->
    print_endline "no violations";
    `Ok ()
  | fs ->
    List.iter (fun f -> Printf.printf "VIOLATION: %s\n" f) fs;
    `Error (false, "chaos run found violations")

let main kind impl_name procs readers seeds value_range trace_file faults_str
    sweep chaos_seed chaos_ops =
  match chaos_seed with
  | Some seed -> chaos ~seed ~ops:chaos_ops
  | None ->
    if sweep then
      match lookup_impl kind impl_name with
      | `Error _ as e -> e
      | (`Maxreg _ | `Counter _ | `Snapshot _) as target ->
        fault_sweep target kind impl_name procs readers value_range
    else
      stress kind impl_name procs readers seeds value_range trace_file
        faults_str

open Cmdliner

let kind =
  Arg.(
    value
    & opt string "maxreg"
    & info [ "object" ] ~docv:"KIND" ~doc:"Object kind: maxreg, counter or snapshot.")

let impl_name =
  Arg.(
    value
    & opt string "algorithm-a"
    & info [ "impl" ] ~docv:"NAME"
        ~doc:
          "Implementation name, as printed by the experiment tables (e.g. \
           algorithm-a, algorithm-a-literal, aac, cas-loop, farray, naive, \
           afek, double-collect).")

let procs =
  Arg.(value & opt int 4 & info [ "procs" ] ~doc:"Concurrent processes (keep small).")

let readers =
  Arg.(value & opt int 1 & info [ "readers" ] ~doc:"How many processes read instead of writing.")

let seeds =
  Arg.(value & opt int 500 & info [ "seeds" ] ~doc:"Number of random schedules to try.")

let value_range =
  Arg.(value & opt int 8 & info [ "values" ] ~doc:"Operand range (small ranges provoke duplicate-value races).")

let trace_file =
  Arg.(value
       & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:
             "Write a Chrome trace_event JSON to $(docv): the minimized \
              violating execution if any seed fails, else the last seed's \
              execution.  Open in chrome://tracing or ui.perfetto.dev.")

let faults_str =
  Arg.(
    value
    & opt string "none"
    & info [ "faults" ] ~docv:"PLAN"
        ~doc:
          "Fault plan applied to every seed: comma-separated \
           crash:PID@AFTER, casfail:PID#NTH, stall:PID@AT+POINTS, \
           haltbut:PID@AT ('none' for no faults).  On violation the plan \
           is minimized alongside the schedule.")

let sweep =
  Arg.(
    value & flag
    & info [ "fault-sweep" ]
        ~doc:
          "Exhaustively verify every single-crash plan (under DPOR) and \
           every single-stall plan (under the gated explorer) for the \
           chosen object: all surviving histories must linearize.  \
           Exhaustive — keep --procs at 3, and prefer a single writer \
           (the stall sweep enumerates plain interleavings).")

let chaos_seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "chaos" ] ~docv:"SEED"
        ~doc:
          "Native-backend chaos run: multi-domain linearizability bursts \
           and large invariant runs under deterministic preemption/GC \
           injection derived from $(docv).  Ignores the simulator options.")

let chaos_ops =
  Arg.(
    value
    & opt int 1_000_000
    & info [ "chaos-ops" ] ~docv:"N"
        ~doc:"Operations per structure for the --chaos invariant runs.")

let cmd =
  Cmd.v
    (Cmd.info "stress" ~version:"1.0"
       ~doc:
         "Randomized linearizability stress tests for the PODC'14 \
          restricted-use objects, with fault injection (--faults, \
          --fault-sweep) and native-backend chaos runs (--chaos).")
    Term.(ret (const main $ kind $ impl_name $ procs $ readers $ seeds
               $ value_range $ trace_file $ faults_str $ sweep $ chaos_seed
               $ chaos_ops))

let () = exit (Cmd.eval cmd)
