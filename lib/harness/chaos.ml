(* Native-backend chaos: deterministic preemption/GC injection at memory-op
   boundaries, stamped histories for the linearizability checker, and
   stall-one-domain progress runs.  All raw Domain/Atomic usage is confined
   to [Inject] (R1 allowlist, submodule-granular). *)

type config = {
  seed : int;
  yield_ppm : int;
  storm : int;
  gc_ppm : int;
  gc_bytes : int;
  metrics : Obs.Metrics.t;
}

(* [Inject.boundary] rolls once for both faults, so the two rates share
   one million. *)
let config ?(yield_ppm = 20_000) ?(storm = 64) ?(gc_ppm = 2_000)
    ?(gc_bytes = 4096) ?(metrics = Obs.Metrics.disabled) ~seed () =
  if yield_ppm < 0 || gc_ppm < 0 || yield_ppm + gc_ppm > 1_000_000 then
    invalid_arg
      "Chaos.config: yield_ppm and gc_ppm must be >= 0 and sum to at most \
       1_000_000";
  if storm < 0 then invalid_arg "Chaos.config: storm must be >= 0";
  if gc_bytes < 0 then invalid_arg "Chaos.config: gc_bytes must be >= 0";
  { seed; yield_ppm; storm; gc_ppm; gc_bytes; metrics }

module Inject = struct
  (* One boundary counter per domain; the decision at boundary [i] of
     domain [d] is a pure hash of (seed, d, i), so a run is replayable
     from its seed (modulo the true nondeterminism chaos is probing). *)
  let boundary_count : int ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref 0)

  (* splitmix-style finalizer, constants truncated to OCaml's int range;
     statistical quality is irrelevant, decorrelation is all we need *)
  let mix z =
    let z = (z lxor (z lsr 30)) * 0x1ce4e5b9bf58476d in
    let z = (z lxor (z lsr 27)) * 0x133111eb94d049bb in
    z lxor (z lsr 31)

  let gc_event_count : int ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref 0)

  let boundary cfg =
    if cfg.yield_ppm > 0 || cfg.gc_ppm > 0 then begin
      let d = (Domain.self () :> int) in
      let c = Domain.DLS.get boundary_count in
      Stdlib.incr c;
      let h = mix (cfg.seed lxor (d * 0x1e3779b9) lxor (!c * 0x85ebca6b)) in
      let roll = abs h mod 1_000_000 in
      if roll < cfg.yield_ppm then begin
        Obs.Metrics.incr cfg.metrics ~domain:d Obs.Metrics.Fault_yield;
        for _ = 1 to cfg.storm do
          Domain.cpu_relax ()
        done
      end
      else if roll < cfg.yield_ppm + cfg.gc_ppm then begin
        Obs.Metrics.incr cfg.metrics ~domain:d Obs.Metrics.Fault_gc;
        ignore (Sys.opaque_identity (Bytes.create cfg.gc_bytes) : Bytes.t);
        let g = Domain.DLS.get gc_event_count in
        Stdlib.incr g;
        (* every few pressure events, force a minor collection so the
           structure is exercised across GC safepoints, not just under
           allocation noise *)
        if !g land 7 = 0 then Gc.minor ()
      end
    end

  let stamper () =
    let clock = Atomic.make 0 in
    fun () -> Atomic.fetch_and_add clock 1

  let spawn_indexed k f =
    let ds = Array.init k (fun i -> Domain.spawn (fun () -> f i)) in
    Array.map Domain.join ds

  let stall cfg s =
    Obs.Metrics.incr cfg.metrics
      ~domain:((Domain.self () :> int))
      Obs.Metrics.Fault_stall;
    Unix.sleepf s
end

(* {1 Chaos-instrumented memory} *)

let wrap cfg (module M : Smem.Memory_intf.MEMORY) :
    (module Smem.Memory_intf.MEMORY) =
  (module struct
    type t = M.t

    let make = M.make
    let read o = Inject.boundary cfg; M.read o
    let write o v = Inject.boundary cfg; M.write o v

    let cas o ~expected ~desired =
      Inject.boundary cfg;
      M.cas o ~expected ~desired
  end)

(* {1 Instances over chaos memory} *)

let maxreg cfg ~n ~bound impl =
  Instances.maxreg_over (wrap cfg Instances.native) ~n ~bound impl

let counter cfg ~n ~bound impl =
  Instances.counter_over (wrap cfg Instances.native) ~n ~bound impl

let snapshot cfg ~n impl =
  Instances.snapshot_over (wrap cfg Instances.native) ~n impl

(* {1 Op-boundary injection}

   Algorithm A under dispatch inlines its Atomic primitives (arena slots,
   lock, the unboxed structure underneath), so the MEMORY wrapper above
   cannot reach them.  The available seam is the operation boundary:
   roll the injection dice before and after each high-level op.  Coarser
   than per-memory-op injection, but it is exactly the placement that
   stresses the combining protocol — a storm before the op perturbs who
   publishes vs who combines, a storm after it parks a domain that just
   held the combiner lock while others pile into the slots. *)

let instrument_maxreg cfg (i : Maxreg.Max_register.instance) :
    Maxreg.Max_register.instance =
  { read_max =
      (fun () ->
        Inject.boundary cfg;
        let v = i.read_max () in
        Inject.boundary cfg;
        v);
    write_max =
      (fun ~pid v ->
        Inject.boundary cfg;
        i.write_max ~pid v;
        Inject.boundary cfg) }

(* {1 Linearizability bursts} *)

let check_burst_size ~domains ~ops_per_domain =
  if domains <= 0 || ops_per_domain <= 0 then
    invalid_arg "Chaos.burst: domains and ops_per_domain must be positive";
  if domains * ops_per_domain > 62 then
    invalid_arg "Chaos.burst: more than 62 operations (checker limit)"

(* One burst skeleton for all structures: [run cfg ~pid ~i] performs one
   operation and returns (name, arg, result). *)
let burst ~domains ~ops_per_domain run =
  check_burst_size ~domains ~ops_per_domain;
  let stamp = Inject.stamper () in
  let per_domain =
    Inject.spawn_indexed domains (fun pid ->
        Array.init ops_per_domain (fun i ->
            let invoke = stamp () in
            let name, arg, result = run ~pid ~i in
            let return = stamp () in
            { Linearize.History.pid;
              name;
              arg;
              result = Some result;
              invoke;
              return = Some return }))
  in
  let ops = Array.concat (Array.to_list per_domain) in
  Array.sort
    (fun (a : Linearize.History.op) b -> compare a.invoke b.invoke)
    ops;
  ops

(* The op mix is a pure function of (seed, pid, i): every 3rd-ish op
   reads, the rest write distinct, growing values so linearizations are
   discriminating. *)
let decide cfg ~pid ~i =
  Inject.mix (cfg.seed lxor (pid * 0x9e3779b9) lxor ((i + 1) * 0x5bd1e995))

let burst_maxreg cfg ~domains ~ops_per_domain (reg : Maxreg.Max_register.instance)
    =
  burst ~domains ~ops_per_domain (fun ~pid ~i ->
      let h = decide cfg ~pid ~i in
      if abs h mod 3 = 0 then
        ("read_max", Memsim.Simval.Bot, Memsim.Simval.Int (reg.read_max ()))
      else begin
        let v = 1 + (abs h mod 50) in
        reg.write_max ~pid v;
        ("write_max", Memsim.Simval.Int v, Memsim.Simval.Bot)
      end)

let burst_counter cfg ~domains ~ops_per_domain (c : Counters.Counter.instance) =
  burst ~domains ~ops_per_domain (fun ~pid ~i ->
      let h = decide cfg ~pid ~i in
      if abs h mod 3 = 0 then
        ("read", Memsim.Simval.Bot, Memsim.Simval.Int (c.read ()))
      else begin
        c.increment ~pid;
        ("increment", Memsim.Simval.Bot, Memsim.Simval.Bot)
      end)

let burst_snapshot cfg ~domains ~ops_per_domain (s : Snapshots.Snapshot.instance)
    =
  burst ~domains ~ops_per_domain (fun ~pid ~i ->
      let h = decide cfg ~pid ~i in
      if abs h mod 3 = 0 then
        ("scan", Memsim.Simval.Bot, Memsim.Simval.of_int_array (s.scan ()))
      else begin
        let v = 1 + (abs h mod 50) in
        s.update ~pid v;
        ("update", Memsim.Simval.Int v, Memsim.Simval.Bot)
      end)

(* {1 Stall-one-domain runs} *)

type stall_report = {
  stalled : int;
  stall_s : float;
  completed : int array;
  elapsed : float array;
}

let run_stall_one cfg ~domains ~stalled ~stall_s ~ops ~op =
  if stalled < 0 || stalled >= domains then
    invalid_arg "Chaos.run_stall_one: stalled out of range";
  let results =
    Inject.spawn_indexed domains (fun pid ->
        let t0 = Unix.gettimeofday () in
        let done_ = ref 0 in
        for i = 1 to ops do
          op ~pid i;
          Stdlib.incr done_;
          if pid = stalled && i = 1 then Inject.stall cfg stall_s
        done;
        (!done_, Unix.gettimeofday () -. t0))
  in
  { stalled;
    stall_s;
    completed = Array.map fst results;
    elapsed = Array.map snd results }
