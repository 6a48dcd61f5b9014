external clock : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
  [@@noalloc]

let cpu_seconds () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

let batch = 64

let run_batched ~domains ~seconds op =
  Harness.Throughput.run_batched ~domains ~seconds ~batch ~op ()

let recommended_domains () = Harness.Throughput.recommended_domains ()

module Json = Obs.Json_out

type metrics = Obs.Metrics.t

let live_metrics ~domains = Obs.Metrics.create ~domains ()
let no_metrics = Obs.Metrics.disabled

type tally = {
  cas_attempts : int;
  cas_failures : int;
  refresh_rounds : int;
  helps : int;
}

let tally m =
  let t = Obs.Metrics.totals m in
  { cas_attempts = t.cas_attempts;
    cas_failures = t.cas_failures;
    refresh_rounds = t.refresh_rounds;
    helps = t.helps }

module type MAXREG = sig
  type t

  val create : metrics:metrics -> n:int -> domains:int -> t
  val read_max : t -> int
  val write_max : t -> pid:int -> int -> unit
  val write_max_metered : t -> pid:int -> int -> unit
end

module type COUNTER = sig
  type t

  val create : metrics:metrics -> n:int -> t
  val read : t -> int
  val increment : t -> pid:int -> unit
  val increment_metered : t -> pid:int -> unit
end

module AU = Maxreg.Algorithm_a.Unboxed
module FU = Counters.Farray_counter.Unboxed
module AD = Harness.Adaptive.Alg_a

module Alg_a = struct
  type t = { reg : AU.t; metrics : metrics }

  let create ~metrics ~n ~domains:_ = { reg = AU.create ~n (); metrics }
  let read_max t = AU.read_max t.reg
  let write_max t ~pid v = AU.write_max t.reg ~pid v

  let write_max_metered t ~pid v =
    AU.write_max_metered t.reg ~metrics:t.metrics ~pid v
end

module Farray = struct
  type t = { cnt : FU.t; metrics : metrics }

  let create ~metrics ~n = { cnt = FU.create ~n (); metrics }
  let read t = FU.read t.cnt
  let increment t ~pid = FU.increment t.cnt ~pid

  let increment_metered t ~pid =
    FU.increment_metered t.cnt ~metrics:t.metrics ~pid
end

module Race = struct
  type t = AD.t

  let create ~metrics ~n ~domains =
    if Obs.Metrics.enabled metrics then AD.create_metered ~metrics ~n ~domains ()
    else AD.create ~n ~domains ()

  let read_max = AD.read_max
  let write_max = AD.write_max
  let write_max_metered = AD.write_max

  type arena = {
    eliminations : int;
    combined_ops : int;
    batches : int;
    batch_max : int;
    locks : int;
  }

  let arena t =
    let s = Smem.Combine.stats (AD.arena t) in
    { eliminations = s.eliminations;
      combined_ops = s.combined_ops;
      batches = s.batches;
      batch_max = s.batch_max;
      locks = s.lock_acquisitions }

  type dispatch = { epochs : int; flips : int; combining_pct : float }

  let dispatch t =
    let r = AD.report t in
    { epochs = r.epochs;
      flips = r.epoch_flips;
      combining_pct = r.combining_ops_pct }
end

module Sim_alg_a = struct
  type t = Maxreg.Max_register.instance

  let create ~metrics:_ ~n ~domains:_ =
    Harness.Instances.maxreg_sim (Memsim.Session.create ()) ~n ~bound:0
      Harness.Instances.Algorithm_a

  let read_max (t : t) = t.read_max ()
  let write_max (t : t) ~pid v = t.write_max ~pid v
  let write_max_metered = write_max
end

module Sim_farray = struct
  type t = Counters.Counter.instance

  let create ~metrics:_ ~n =
    Harness.Instances.counter_sim (Memsim.Session.create ()) ~n ~bound:0
      Harness.Instances.Farray_counter

  let read (t : t) = t.read ()
  let increment (t : t) ~pid = t.increment ~pid
  let increment_metered = increment
end

module Model = struct
  type config = Alg_a_w1_w3_r | Farray_i_i_r

  let configs = [ Alg_a_w1_w3_r; Farray_i_i_r ]

  let pinned_classes = function
    | Alg_a_w1_w3_r -> 784
    | Farray_i_i_r -> 32_336

  type t = {
    alg_a : Memsim.Session.t * Maxreg.Max_register.instance;
    farray : Memsim.Session.t * Counters.Counter.instance;
  }

  let create () =
    let s = Memsim.Session.create () in
    let reg =
      Harness.Annotate.max_register s
        (Harness.Instances.maxreg_sim s ~n:3 ~bound:4
           Harness.Instances.Algorithm_a)
    in
    let s' = Memsim.Session.create () in
    let cnt =
      Harness.Annotate.counter s'
        (Harness.Instances.counter_sim s' ~n:3 ~bound:8
           Harness.Instances.Farray_counter)
    in
    { alg_a = (s, reg); farray = (s', cnt) }

  type explored = {
    classes : int;
    sleep_blocked : int;
    events : int;
    non_linearizable : int;
    truncated : bool;
  }

  let mem_events trace =
    Array.fold_left
      (fun acc -> function Memsim.Trace.Mem _ -> acc + 1 | _ -> acc)
      0 (Memsim.Trace.entries trace)

  let explore t config ~check =
    let session, make_body, linearizable =
      match config with
      | Alg_a_w1_w3_r ->
        let s, (reg : Maxreg.Max_register.instance) = t.alg_a in
        ( s,
          (fun pid () ->
            match pid with
            | 0 -> reg.write_max ~pid 1
            | 1 -> reg.write_max ~pid 3
            | _ -> ignore (reg.read_max () : int)),
          Linearize.Checker.check_trace (module Linearize.Spec.Max_register)
            ~n:3 )
      | Farray_i_i_r ->
        let s, (cnt : Counters.Counter.instance) = t.farray in
        ( s,
          (fun pid () ->
            if pid < 2 then cnt.increment ~pid else ignore (cnt.read () : int)),
          Linearize.Checker.check_trace (module Linearize.Spec.Counter) ~n:3 )
    in
    let events = ref 0 and bad = ref 0 in
    let st =
      Memsim.Dpor.run session ~n:3 ~make_body
        ~on_complete:(fun trace ->
          events := !events + mem_events trace;
          if not (check (fun () -> linearizable trace)) then incr bad;
          true)
        ()
    in
    { classes = st.explored;
      sleep_blocked = st.sleep_blocked;
      events = !events;
      non_linearizable = !bad;
      truncated = st.truncated }
end

module Probe = struct
  module P = Smem.Unboxed_memory.Padded

  let n = 64

  let empty () _ _ =
    for _ = 1 to batch do
      ignore (Sys.opaque_identity 0 : int)
    done

  let smem_read () =
    let c = P.make 1 in
    fun _ _ ->
      for _ = 1 to batch do
        ignore (Sys.opaque_identity (P.read c) : int)
      done

  let smem_write () =
    let c = P.make 0 in
    fun _ i0 ->
      for k = 1 to batch do
        P.write c (i0 + k)
      done

  let smem_cas () =
    let c = P.make 0 in
    let v = ref 0 in
    fun _ _ ->
      for _ = 1 to batch do
        if P.cas c ~expected:!v ~desired:(!v + 1) then incr v
      done

  (* One guess per caller, a cache line apart. *)
  let smem_cas_shared () =
    let c = P.make 0 in
    let guess = Array.make (4 * 16) 0 in
    fun d _ ->
      let g = d * 16 in
      for _ = 1 to batch do
        let v = Array.unsafe_get guess g in
        Array.unsafe_set guess g
          (if P.cas c ~expected:v ~desired:(v + 1) then v + 1 else P.read c)
      done

  let alg_a_read () =
    let r = AU.create ~n () in
    AU.write_max r ~pid:0 n;
    fun _ _ ->
      for _ = 1 to batch do
        ignore (Sys.opaque_identity (AU.read_max r) : int)
      done

  (* Fresh values from [n] up: every write takes the per-process leaf
     and propagates, as in the workloads' value streams. *)
  let alg_a_update () =
    let r = AU.create ~n () in
    let next = ref n in
    fun _ _ ->
      for _ = 1 to batch do
        AU.write_max r ~pid:0 !next;
        incr next
      done

  let alg_a_update_disabled () =
    let r = AU.create ~n () in
    let next = ref n in
    fun _ _ ->
      for _ = 1 to batch do
        AU.write_max_metered r ~metrics:Obs.Metrics.disabled ~pid:0 !next;
        incr next
      done

  let farray_read () =
    let c = FU.create ~n () in
    FU.increment c ~pid:0;
    fun _ _ ->
      for _ = 1 to batch do
        ignore (Sys.opaque_identity (FU.read c) : int)
      done

  let farray_update () =
    let c = FU.create ~n () in
    fun _ _ ->
      for _ = 1 to batch do
        FU.increment c ~pid:0
      done

  type steps = { reads : float; writes : float; cas : float }

  let steps op =
    let mem, counts =
      Smem.Counting_memory.wrap (Smem.Sim_memory.bind (Memsim.Session.create ()))
    in
    let reg = Harness.Instances.maxreg_over mem ~n ~bound:0 Harness.Instances.Algorithm_a in
    let cnt =
      Harness.Instances.counter_over mem ~n ~bound:0 Harness.Instances.Farray_counter
    in
    reg.write_max ~pid:0 n;
    cnt.increment ~pid:0;
    let ops = match op with `Alg_a_read | `Farray_read -> 1 | _ -> 64 in
    Smem.Counting_memory.reset counts;
    for k = 1 to ops do
      match op with
      | `Alg_a_read -> ignore (reg.read_max () : int)
      | `Alg_a_update -> reg.write_max ~pid:0 (n + k)
      | `Farray_read -> ignore (cnt.read () : int)
      | `Farray_update -> cnt.increment ~pid:0
    done;
    let per c = float_of_int c /. float_of_int ops in
    { reads = per counts.reads; writes = per counts.writes; cas = per counts.cas }
end
