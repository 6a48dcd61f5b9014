type workload = Gauge_solo | Gauge_monitor | Writers_race | Model_check

let workloads =
  [ ("gauge-solo", Gauge_solo);
    ("gauge-monitor", Gauge_monitor);
    ("writers-race", Writers_race);
    ("model-check", Model_check) ]

type result = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  end_to_end : (string * float array) list;
  per_layer : (string * float) list;
  ref_loop_ms : float array;
  checks : int;
  failures : int;
  trend_pct : float;
  iqr_pct : float;
}

let now () = Int64.to_int (Subjects.clock ())
let since t0 = float_of_int (now () - t0) /. 1e9

let ref_loop_ms () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to 10_000_000 do
    acc := ((!acc * 31) + i) land 0xffffff
  done;
  ignore (Sys.opaque_identity !acc : int);
  since t0 *. 1e3

(* Set-up is timed 16 constructions at a time, once per round, so that
   its samples span the run like every other metric's.  On the host
   this benchmark was defined on, one CPU at a time built instances 1.5x
   slower than the other, switching sides within seconds: one burst of
   timings at the start of a run all fell on whichever side it drew. *)
let time_set_up make times =
  for _ = 1 to 16 do
    let t0 = now () in
    ignore (Sys.opaque_identity (make ()));
    times := since t0 :: !times
  done

(* A percentile of a batch-latency histogram, per operation. *)
let per_op ?(p = 50.) h = Stats.hist_percentile h p /. float_of_int Subjects.batch

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let pct a b = 100. *. ratio a b

module Gauge = Native.Make (Subjects.Alg_a) (Subjects.Farray)
module Racer = Native.Make (Subjects.Race) (Subjects.Farray)
module Sim = Native.Make (Subjects.Sim_alg_a) (Subjects.Sim_farray)

let gauge ~monitor =
  { Native.domains = (if monitor then 2 else 1);
    read_share = 0.5;
    stale_share = 0.;
    monitor;
    counter = true;
    reg_spans = (Spans.Alg_a_read_max, Spans.Alg_a_write_max) }

let race =
  { Native.domains = 2;
    read_share = 0.125;
    stale_share = 0.5;
    monitor = false;
    counter = false;
    reg_spans = (Spans.Adaptive_read_max, Spans.Adaptive_write_max) }

let shape = function
  | Gauge_solo | Model_check -> gauge ~monitor:false
  | Gauge_monitor -> gauge ~monitor:true
  | Writers_race -> race

(* A native instance's loop, and for writers-race its arena and
   dispatcher read-outs. *)
let native_loop kind ~seed ~reg_metrics ~cnt_metrics () =
  let salt = match kind with Gauge_solo -> 1 | Gauge_monitor -> 2 | _ -> 3 in
  if kind = Writers_race then begin
    let r = Racer.create race ~seed ~salt ~n:64 ~reg_metrics ~cnt_metrics in
    let reg = Racer.register r in
    ( Racer.loop r,
      fun () -> Some (Subjects.Race.arena reg, Subjects.Race.dispatch reg) )
  end
  else
    ( Gauge.loop (Gauge.create (shape kind) ~seed ~salt ~n:64 ~reg_metrics ~cnt_metrics),
      fun () -> None )

(* Model-check times single operations on the simulated structures it
   explores, run like gauge-solo. *)
let sim_loop ~seed () =
  Sim.loop
    (Sim.create (shape Model_check) ~seed ~salt:4 ~n:3
       ~reg_metrics:Subjects.no_metrics ~cnt_metrics:Subjects.no_metrics)

(* A run's samples, newest first.  A window's sample comes with the
   share of its domains' CPUs that the process had during it. *)
type rounds = {
  ops : (float * float) list ref;
  updates : (float * float) list ref;
  read_p50 : (float * float) list ref;
  update_p50 : (float * float) list ref;
  traced_ops : (float * float) list ref;
  ref_ms : float list ref;
}

let make_rounds () =
  { ops = ref []; updates = ref []; read_p50 = ref []; update_p50 = ref [];
    traced_ops = ref []; ref_ms = ref [] }

let push samples v = samples := v :: !samples
let samples r = Array.of_list (List.rev !r)

(* The windows that count: those whose CPU share is at least 0.9 of the
   run's median share.  On the 2-CPU shared host this benchmark was
   defined on, the guest now and then ran both domains of a two-domain
   workload on one CPU for a whole window (a CPU share of 0.5).  Neither
   domain then raced the other: writers-race updates took 280 ns instead
   of 700 to 1200, and twice as many got done.  Such windows measure
   time-sharing, not the workload, and how many a run held depended on
   the host: between two sets of ten runs they moved the median run's
   update latency by 24%.  A one-domain window kept its CPU 0.99 of the
   time or more, almost always. *)
let kept r =
  match !r with
  | [] -> [||]
  | l ->
    let floor = 0.9 *. Stats.median (Array.of_list (List.map snd l)) in
    Array.of_list (List.rev (List.filter_map (fun (v, s) -> if s >= floor then Some v else None) l))

(* The share of [domains] CPUs that the process used since [mark ()]. *)
let mark () = (Subjects.cpu_seconds (), now ())

let cpu_share ~domains (cpu0, t0) =
  (Subjects.cpu_seconds () -. cpu0) /. (since t0 *. float_of_int domains)

(* Every trial is cut into [windows] trials, each one sample.  On a
   shared host a round's conditions change within it, so one sample per
   round mixed them, and the tails of 24 samples were a few draws each.
   Over ten runs of writers-race, the spread of the runs' fast decile of
   read_p50_ns was 11 to 17% from half their rounds and 8% from all 24;
   over ten later runs cut into 144 windows, 3%. *)
let windows ~quick = if quick then 1 else 6

(* One closed-loop trial: (ops/s, update ops/s), from the harness's rate
   and the stream's own op tallies, and its CPU share. *)
let trial (lp : Native.loop) ~seconds =
  let s = lp.stream in
  let r0 = Stream.total s Reads and u0 = Stream.total s Updates in
  let m = mark () in
  let rate = Subjects.run_batched ~domains:lp.domains ~seconds lp.op in
  let share = cpu_share ~domains:lp.domains m in
  let dr = Stream.total s Reads - r0 and du = Stream.total s Updates - u0 in
  ((rate, share), (rate *. ratio du (dr + du), share))

(* One latency window: its read and update medians, where it has
   samples of that kind, go to [r]. *)
let latency_trial (lp : Native.loop) ~seconds ~pool (r : rounds) =
  lp.set_mode Timed;
  let m = mark () in
  ignore (Subjects.run_batched ~domains:lp.domains ~seconds lp.op : float);
  let share = cpu_share ~domains:lp.domains m in
  lp.set_mode Plain;
  let rh = lp.take_latencies ~read:true and uh = lp.take_latencies ~read:false in
  let fold (dst, src) = Array.iteri (fun i c -> dst.(i) <- dst.(i) + c) src in
  List.iter fold [ (fst pool, rh); (snd pool, uh) ];
  let keep samples h = if Stats.hist_count h > 0 then push samples (per_op h, share) in
  keep r.read_p50 rh;
  keep r.update_p50 uh

let traced_trial spans ~f =
  let main = Spans.main spans in
  let start = now () in
  let id = Spans.open_span spans ~tid:main Spans.Trial ~parent:(-1) start in
  let x = f id in
  Spans.close_span spans ~tid:main Spans.Trial id ~start (now ());
  x

(* The model checker's layer metrics, from one untraced pass; a traced
   run of another workload measures one pass for them. *)
let dpor_pass = ref None

let dpor_layer (p : Model_check.pass) ~events_per_s =
  let classes c = float_of_int (List.assoc c p.per_config) in
  [ ("dpor.classes.alg_a", classes Subjects.Model.Alg_a_w1_w3_r);
    ("dpor.classes.farray", classes Subjects.Model.Farray_i_i_r);
    ("dpor.sleep_blocked", float_of_int p.sleep_blocked);
    ("dpor.events", float_of_int p.events);
    ("dpor.events_per_s", events_per_s) ]

let dpor_probe () =
  let p =
    match !dpor_pass with
    | Some p -> p
    | None ->
      let p = Model_check.run (Subjects.Model.create ()) in
      dpor_pass := Some p;
      p
  in
  dpor_layer p ~events_per_s:(float_of_int p.events /. p.seconds)

let tails (r, u) =
  [ ("read_p99_ns", per_op ~p:99. r);
    ("read_p999_ns", per_op ~p:99.9 r);
    ("update_p99_ns", per_op ~p:99. u);
    ("update_p999_ns", per_op ~p:99.9 u);
    ("latency.read_samples", float_of_int (Stats.hist_count r));
    ("latency.update_samples", float_of_int (Stats.hist_count u)) ]

let self_times spans ~domains =
  let tot n = float_of_int (Spans.total_ns spans n) in
  let trial = tot Spans.Trial *. float_of_int domains in
  let share xs = if trial = 0. then 0. else 100. *. List.fold_left (fun a n -> a +. tot n) 0. xs /. trial in
  let alg_a = share [ Alg_a_read_max; Alg_a_write_max ]
  and farray = share [ Farray_read; Farray_increment ]
  and adaptive = share [ Adaptive_read_max; Adaptive_write_max ]
  and explore = share [ Dpor_explore ]
  and check = share [ Linearize_check ] in
  [ ("self.harness_pct", 100. -. alg_a -. farray -. adaptive -. explore);
    ("self.alg_a_pct", alg_a);
    ("self.farray_pct", farray);
    ("self.adaptive_pct", adaptive);
    ("self.dpor_pct", explore -. check);
    ("linearize.check_pct", check) ]

let new_pool () = (Array.make Native.hist_size 0, Array.make Native.hist_size 0)

(* A layer the workload does not touch reads 0. *)
let untouched = List.map (fun k -> (k, 0.))

let arena_metrics =
  [ "combine.eliminations_per_update"; "combine.mean_batch"; "combine.batch_max";
    "combine.locks_per_update"; "combine.useful_pct"; "adaptive.flips";
    "adaptive.combining_pct"; "adaptive.epochs" ]

(* The adaptive registers' arena and dispatcher counts, over instances. *)
let arena_layer stats ~updates =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let arena f = sum (fun ((a : Subjects.Race.arena), _) -> f a)
  and dispatch f = sum (fun (_, (d : Subjects.Race.dispatch)) -> f d) in
  let eliminations = arena (fun a -> a.eliminations)
  and combined = arena (fun a -> a.combined_ops) in
  [ ("combine.eliminations_per_update", ratio eliminations updates);
    ("combine.mean_batch", ratio combined (arena (fun a -> a.batches)));
    ( "combine.batch_max",
      float_of_int
        (List.fold_left (fun m ((a : Subjects.Race.arena), _) -> max m a.batch_max) 0 stats) );
    ("combine.locks_per_update", ratio (arena (fun a -> a.locks)) updates);
    ("combine.useful_pct", pct (eliminations + combined) updates);
    ("adaptive.flips", float_of_int (dispatch (fun d -> d.flips)));
    ( "adaptive.combining_pct",
      List.fold_left (fun acc (_, (d : Subjects.Race.dispatch)) -> acc +. d.combining_pct) 0. stats
      /. float_of_int (List.length stats) );
    ("adaptive.epochs", float_of_int (dispatch (fun d -> d.epochs))) ]

(* What both kinds of run hand to [run]. *)
type outcome = {
  setup : float list;
  r : rounds;
  checks : int;
  failures : int;
  layer : (string * float) list;  (* workload-level per-layer values *)
}

let run_native kind ~seed ~seconds ~traced ~quick ~spans =
  let domains = (shape kind).domains in
  let reg_metrics, cnt_metrics =
    if traced then (Subjects.live_metrics ~domains, Subjects.live_metrics ~domains)
    else (Subjects.no_metrics, Subjects.no_metrics)
  in
  let make = native_loop kind ~seed ~reg_metrics ~cnt_metrics in
  let n = if quick then 2 else 24 in
  let w = windows ~quick in
  let b = seconds /. float_of_int (n * w) in
  let warmup = (if quick then 0.05 else 1.0) /. float_of_int n in
  let tp, tr, lat = if traced then (0.35, 0.35, 0.3) else (0.6, 0., 0.4) in
  let setup = ref [] in
  let r = make_rounds () in
  let pool = new_pool () in
  let words = ref 0. and plain_ops = ref 0. in
  let tally_delta = ref [] and traced_writes = ref 0 and traced_incs = ref 0 in
  let streams = ref [] and arenas = ref [] in
  for _ = 1 to n do
    push r.ref_ms (ref_loop_ms ());
    time_set_up make setup;
    (* Every round builds its own instance.  On the host this benchmark
       was defined on, an instance's speed depended on where its memory
       landed, for all its life: writers-race read latency one round
       apart was uncorrelated, and four rounds apart, on one of four
       rotated instances, correlated at 0.4.  A run's value then hung
       on the best of its few draws. *)
    let lp, arena = make () in
    ignore (Subjects.run_batched ~domains ~seconds:warmup lp.op : float);
    let s = lp.stream in
    for _ = 1 to w do
      let w0 = Gc.minor_words () in
      let o0 = Stream.total s Reads + Stream.total s Updates in
      let ops, upd = trial lp ~seconds:(tp *. b) in
      words := !words +. (Gc.minor_words () -. w0);
      plain_ops := !plain_ops +. float_of_int (Stream.total s Reads + Stream.total s Updates - o0);
      push r.ops ops;
      push r.updates upd
    done;
    (match spans with
     | Some sp ->
       let before = (Subjects.tally reg_metrics, Subjects.tally cnt_metrics) in
       let u0 = Stream.total s Updates and c0 = Stream.total s Increments in
       for _ = 1 to w do
         push r.traced_ops
           (traced_trial sp ~f:(fun id ->
                lp.set_trace sp ~parent:id;
                lp.set_mode Traced;
                let ops, _ = trial lp ~seconds:(tr *. b) in
                lp.set_mode Plain;
                ops))
       done;
       let dc = Stream.total s Increments - c0 in
       traced_incs := !traced_incs + dc;
       traced_writes := !traced_writes + (Stream.total s Updates - u0 - dc);
       tally_delta :=
         (before, (Subjects.tally reg_metrics, Subjects.tally cnt_metrics))
         :: !tally_delta
     | None -> ());
    for _ = 1 to w do
      latency_trial lp ~seconds:(lat *. b) ~pool r
    done;
    lp.final_check ();
    push streams s;
    Option.iter (push arenas) (arena ())
  done;
  let total slot = List.fold_left (fun acc s -> acc + Stream.total s slot) 0 !streams in
  let layer =
    if not traced then []
    else begin
      let delta pick field =
        List.fold_left
          (fun acc (before, after) ->
            acc + field (pick after) - field (pick before))
          0 !tally_delta
      in
      let att p = delta p (fun (t : Subjects.tally) -> t.cas_attempts)
      and fail p = delta p (fun (t : Subjects.tally) -> t.cas_failures)
      and refresh p = delta p (fun (t : Subjects.tally) -> t.refresh_rounds) in
      let arena =
        match !arenas with
        | [] -> untouched arena_metrics
        | stats -> arena_layer stats ~updates:(total Updates)
      in
      [ ("alg_a.cas_fail_pct", pct (fail fst) (att fst));
        ("alg_a.refresh_per_update", ratio (refresh fst) !traced_writes);
        ("farray.cas_fail_pct", pct (fail snd) (att snd));
        ("farray.refresh_per_update", ratio (refresh snd) !traced_incs);
        ("helps_per_update",
         ratio (delta fst (fun (t : Subjects.tally) -> t.helps)) !traced_writes) ]
      @ arena
      @ [ ("stream.stale_pct", pct (total Stale) (total Updates - total Increments));
          ("gc.minor_words_per_op", !words /. !plain_ops) ]
      @ tails pool
      @ (match spans with Some sp -> self_times sp ~domains | None -> [])
      @ dpor_probe ()
    end
  in
  { setup = !setup; r; checks = total Checks; failures = total Failures; layer }

let run_model ~seed ~seconds ~traced ~quick ~spans =
  let make () = (Subjects.Model.create (), sim_loop ~seed ()) in
  let model, sim = make () in
  let setup = ref [] in
  ignore (Subjects.run_batched ~domains:1 ~seconds:(if quick then 0.02 else 0.2) sim.op : float);
  let max_rounds = 64 in
  let w = windows ~quick in
  let r = make_rounds () in
  let pool = new_pool () in
  let checks = ref 0 and failures = ref 0 and words = ref 0. and ops = ref 0 in
  let events_per_s = ref [] in
  let t_start = now () in
  let min_rounds = if quick then 1 else 3 in
  let n = ref 0 in
  while !n < min_rounds || (since t_start < seconds && !n < max_rounds) do
    push r.ref_ms (ref_loop_ms ());
    time_set_up make setup;
    let w0 = Gc.minor_words () in
    let p = Model_check.run model in
    words := !words +. (Gc.minor_words () -. w0);
    ops := !ops + p.ops;
    if !dpor_pass = None then dpor_pass := Some p;
    checks := !checks + p.checks;
    failures := !failures + p.failures;
    Array.iter
      (fun (x, share) ->
        push r.ops (x, share);
        push r.updates (x *. ratio p.updates p.ops, share))
      p.chunks;
    push events_per_s (float_of_int p.events /. p.seconds);
    (match spans with
     | Some sp ->
       let tp = traced_trial sp ~f:(fun id -> Model_check.run ~trace:(sp, id) model) in
       checks := !checks + tp.checks;
       failures := !failures + tp.failures;
       Array.iter (push r.traced_ops) tp.chunks
     | None -> ());
    for _ = 1 to w do
      latency_trial sim ~seconds:((if quick then 0.02 else 0.25) /. float_of_int w) ~pool r
    done;
    incr n
  done;
  sim.final_check ();
  checks := !checks + Stream.total sim.stream Checks;
  failures := !failures + Stream.total sim.stream Failures;
  let layer =
    if not traced then []
    else begin
      untouched
        ([ "alg_a.cas_fail_pct"; "alg_a.refresh_per_update"; "farray.cas_fail_pct";
           "farray.refresh_per_update"; "helps_per_update"; "stream.stale_pct" ]
        @ arena_metrics)
      @ [ ("gc.minor_words_per_op", !words /. float_of_int !ops) ]
      @ tails pool
      @ (match spans with Some sp -> self_times sp ~domains:1 | None -> [])
      @ dpor_layer (Option.get !dpor_pass)
          ~events_per_s:(Stats.median (samples events_per_s))
    end
  in
  { setup = !setup; r; checks = !checks; failures = !failures; layer }

let run kind ~seed ~seconds ~traced ~quick ~trace_out =
  let spans =
    if traced then Some (Spans.create ~domains:(shape kind).domains) else None
  in
  let o =
    match kind with
    | Model_check -> run_model ~seed ~seconds ~traced ~quick ~spans
    | _ -> run_native kind ~seed ~seconds ~traced ~quick ~spans
  in
  let ops = kept o.r.ops and ref_ms = samples o.r.ref_ms in
  let trend_pct = Stats.trend_pct ops
  and iqr_pct = Stats.spread_pct (Stats.summarize ops) in
  let per_layer =
    if not traced then []
    else begin
      let probes = Probes.measure ~seconds:(if quick then 0.01 else 0.1) in
      let overhead =
        100. *. (1. -. (Stats.median (kept o.r.traced_ops) /. Stats.median ops))
      in
      let all =
        [ ("host.ref_loop_ms", Stats.median ref_ms);
          ("trials.trend_pct", trend_pct);
          ("trials.iqr_pct", iqr_pct);
          ("trials.kept_pct", pct (Array.length ops) (List.length !(o.r.ops)));
          ("trace.overhead_pct", overhead) ]
        @ probes @ o.layer
      in
      List.map
        (fun (d : Metric.def) ->
          match List.assoc_opt d.name all with
          | Some v -> (d.name, v)
          | None -> failwith ("bench/suite: no value for per-layer metric " ^ d.name))
        Metric.per_layer
    end
  in
  (match (spans, trace_out) with
   | Some sp, Some path -> Spans.write_chrome sp path
   | _ -> ());
  { workload = fst (List.find (fun (_, k) -> k = kind) workloads);
    seed;
    seconds;
    traced;
    end_to_end =
      [ ("setup_s", Array.of_list o.setup);
        ("ops_per_s", ops);
        ("update_ops_per_s", kept o.r.updates);
        ("read_p50_ns", kept o.r.read_p50);
        ("update_p50_ns", kept o.r.update_p50) ];
    per_layer;
    ref_loop_ms = ref_ms;
    checks = o.checks;
    failures = o.failures;
    trend_pct;
    iqr_pct }

let stationary r = Float.abs r.trend_pct <= r.iqr_pct

let host_drift r =
  let lo = Array.fold_left min infinity r.ref_loop_ms
  and hi = Array.fold_left max neg_infinity r.ref_loop_ms in
  hi > 1.10 *. lo
