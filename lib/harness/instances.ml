(* The implementation registry: build any implementation, bound to a
   simulator session or to native atomics, as a closed instance, so the
   CLI, the experiments, the adversaries and the tests exercise the
   same code.  Algorithm A under dispatch is the one native structure
   built elsewhere: {!Adaptive.Alg_a}. *)

type maxreg_impl =
  | Algorithm_a
  | Algorithm_a_literal
  | Aac_maxreg
  | B1_maxreg
  | Cas_maxreg
type counter_impl = Aac_counter | Farray_counter | Naive_counter | Snapshot_counter of snapshot_impl
and snapshot_impl = Double_collect | Afek | Farray_snapshot

let maxreg_name = function
  | Algorithm_a -> "algorithm-a"
  | Algorithm_a_literal -> "algorithm-a-literal"
  | Aac_maxreg -> "aac"
  | B1_maxreg -> "aac-unbounded-b1"
  | Cas_maxreg -> "cas-loop"

let rec counter_name = function
  | Aac_counter -> "aac"
  | Farray_counter -> "farray"
  | Naive_counter -> "naive"
  | Snapshot_counter s -> "snapshot-" ^ snapshot_name s

and snapshot_name = function
  | Double_collect -> "double-collect"
  | Afek -> "afek"
  | Farray_snapshot -> "farray"

let all_maxregs = [ Algorithm_a; Aac_maxreg; B1_maxreg; Cas_maxreg ]
let all_counters =
  [ Aac_counter; Farray_counter; Naive_counter;
    Snapshot_counter Farray_snapshot ]
let all_snapshots = [ Double_collect; Afek; Farray_snapshot ]

(* {1 Construction over an arbitrary MEMORY}

   Every structure is built once, inside [Boxed.Raw.with_memory m], so
   its cells live in [m]: the int-valued ones of lib/structures as their
   boxed compile (the same source the unboxed backend runs natively),
   the snapshots as plain modules over [Boxed.Raw].  A snapshot counter
   is Corollary 1's reduction over the snapshot's closed instance. *)

let boxed_maxreg (type r) m (module R : Maxreg.Max_register.S with type t = r)
    create =
  Maxreg.Max_register.instantiate (module R) (Boxed.Raw.with_memory m create)

let boxed_counter (type c) m (module C : Counters.Counter.S with type t = c)
    create =
  Counters.Counter.instantiate (module C) (Boxed.Raw.with_memory m create)

let boxed_snapshot (type s) m (module S : Snapshots.Snapshot.S with type t = s)
    create =
  Snapshots.Snapshot.instantiate (module S) (Boxed.Raw.with_memory m create)

let maxreg_over (m : (module Smem.Memory_intf.MEMORY)) ~n ~bound impl :
    Maxreg.Max_register.instance =
  match impl with
  | Algorithm_a | Algorithm_a_literal ->
    let literal_early_return = impl = Algorithm_a_literal in
    boxed_maxreg m
      (module Boxed.Algorithm_a)
      (Boxed.Algorithm_a.create ~literal_early_return ~n)
  | Aac_maxreg ->
    boxed_maxreg m (module Boxed.Aac_maxreg) (Boxed.Aac_maxreg.create ~bound)
  | B1_maxreg -> boxed_maxreg m (module Boxed.B1_maxreg) Boxed.B1_maxreg.create
  | Cas_maxreg -> boxed_maxreg m (module Boxed.Cas_maxreg) Boxed.Cas_maxreg.create

let snapshot_over (m : (module Smem.Memory_intf.MEMORY)) ~n impl :
    Snapshots.Snapshot.instance =
  match impl with
  | Double_collect ->
    boxed_snapshot m
      (module Snapshots.Double_collect)
      (Snapshots.Double_collect.create ~n)
  | Afek ->
    boxed_snapshot m
      (module Snapshots.Afek_snapshot)
      (Snapshots.Afek_snapshot.create ~n)
  | Farray_snapshot ->
    boxed_snapshot m
      (module Snapshots.Farray_snapshot)
      (Snapshots.Farray_snapshot.create ~n)

let counter_over (m : (module Smem.Memory_intf.MEMORY)) ~n ~bound impl :
    Counters.Counter.instance =
  match impl with
  | Aac_counter ->
    boxed_counter m (module Boxed.Aac_counter) (Boxed.Aac_counter.create ~n ~bound)
  | Farray_counter ->
    boxed_counter m (module Boxed.Farray_counter) (Boxed.Farray_counter.create ~n)
  | Naive_counter ->
    boxed_counter m (module Boxed.Naive_counter) (Boxed.Naive_counter.create ~n)
  | Snapshot_counter s ->
    Counters.Counter.instantiate
      (module Snapshots.Counter_of_snapshot)
      (Snapshots.Counter_of_snapshot.create ~n (snapshot_over m ~n s))

(* {1 Convenience constructors} *)

let maxreg_sim session ~n ~bound impl =
  maxreg_over (Smem.Sim_memory.bind session) ~n ~bound impl

let counter_sim session ~n ~bound impl =
  counter_over (Smem.Sim_memory.bind session) ~n ~bound impl

let snapshot_sim session ~n impl =
  snapshot_over (Smem.Sim_memory.bind session) ~n impl

let native : (module Smem.Memory_intf.MEMORY) = (module Smem.Atomic_memory)

let maxreg_native ~n ~bound impl = maxreg_over native ~n ~bound impl
let counter_native ~n ~bound impl = counter_over native ~n ~bound impl
let snapshot_native ~n impl = snapshot_over native ~n impl

(* {1 Tradeoff-dial constructors}

   The Dial_counter / Dial_maxreg family (DESIGN.md §15) is keyed by a
   {!Treeprim.Dial.t} rather than a [counter_impl] case: a dial point is
   a parameter of one construction, not a new algorithm, and threading
   it through the impl enums would force every all_counters consumer
   (liveness matrices, DPOR sweeps, repro experiments) through four more
   rows.  The [_over]/[_sim] constructors run the family's boxed compile
   under Memsim, DPOR and the fault layer; its unboxed compile is the
   [Dial] spec of the native constructors below. *)

let counter_dial_over m ~n dial =
  boxed_counter m (module Boxed.Dial_counter) (Boxed.Dial_counter.create ~n ~dial)

let counter_dial_sim session ~n dial =
  counter_dial_over (Smem.Sim_memory.bind session) ~n dial

let maxreg_dial_over m ~n dial =
  boxed_maxreg m (module Boxed.Dial_maxreg) (Boxed.Dial_maxreg.create ~n ~dial)

let maxreg_dial_sim session ~n dial =
  maxreg_dial_over (Smem.Sim_memory.bind session) ~n dial

(* {1 Native constructors: one per structure family}

   Every native fast-path instance comes from [maxreg_unboxed] /
   [counter_unboxed], keyed by a spec (an impl enum case or a dial
   point); the interface documents the metering contract.  Each is the
   unboxed compile itself.  [None] exactly where no such instance
   exists: AAC (its constructions take a value bound, which these
   constructors do not; its unboxed compile is Unboxed.Aac_maxreg /
   Unboxed.Aac_counter) and the snapshot counters (vector-valued, so
   boxed only: the native f-array snapshot is [snapshot_native]).
   Algorithm A under dispatch is {!Adaptive.Alg_a}, built directly. *)

type 'impl spec = Impl of 'impl | Dial of Treeprim.Dial.t
type maxreg_spec = maxreg_impl spec
type counter_spec = counter_impl spec

let meter_maxreg ~metrics (i : Maxreg.Max_register.instance) :
    Maxreg.Max_register.instance =
  if not (Obs.Metrics.enabled metrics) then i
  else
    { i with
      write_max =
        (fun ~pid v ->
          Obs.Metrics.incr metrics ~domain:pid Obs.Metrics.Op_update;
          i.write_max ~pid v) }

let meter_counter ~metrics (i : Counters.Counter.instance) :
    Counters.Counter.instance =
  if not (Obs.Metrics.enabled metrics) then i
  else
    { i with
      increment =
        (fun ~pid ->
          Obs.Metrics.incr metrics ~domain:pid Obs.Metrics.Op_update;
          i.increment ~pid) }

(* Each structure as a read and an update closure; the update meters
   into [metrics], which costs an unmetered instance (the disabled
   handle) one branch per operation. *)

let maxreg_unboxed ?(metrics = Obs.Metrics.disabled) ~n spec =
  let parts =
    match spec with
    | Impl ((Algorithm_a | Algorithm_a_literal) as impl) ->
      let module A = Unboxed.Algorithm_a in
      let reg =
        A.create ~literal_early_return:(impl = Algorithm_a_literal) ~n ()
      in
      Some
        ( (fun () -> A.read_max reg),
          fun ~pid v -> A.write_max_metered reg ~metrics ~pid v )
    | Impl Cas_maxreg ->
      let module A = Unboxed.Cas_maxreg in
      let reg = A.create () in
      Some
        ( (fun () -> A.read_max reg),
          fun ~pid v -> A.write_max_metered reg ~metrics ~pid v )
    | Impl B1_maxreg ->
      (* switch writes are idempotent 0->1 stores, no CAS to meter *)
      let module A = Unboxed.B1_maxreg in
      let reg = A.create () in
      Some ((fun () -> A.read_max reg), fun ~pid v -> A.write_max reg ~pid v)
    | Dial dial ->
      let module A = Unboxed.Dial_maxreg in
      let reg = A.create ~n ~dial () in
      Some
        ( (fun () -> A.read_max reg),
          fun ~pid v -> A.write_max_metered reg ~metrics ~pid v )
    | Impl Aac_maxreg -> None
  in
  Option.map
    (fun (read_max, write_max) ->
      meter_maxreg ~metrics { Maxreg.Max_register.read_max; write_max })
    parts

let counter_unboxed ?(metrics = Obs.Metrics.disabled) ~n spec =
  let parts =
    match spec with
    | Impl Farray_counter ->
      let module C = Unboxed.Farray_counter in
      let c = C.create ~n () in
      Some
        ((fun () -> C.read c), fun ~pid -> C.increment_metered c ~metrics ~pid)
    | Impl Naive_counter ->
      (* single-writer cells, no CAS to meter *)
      let module C = Unboxed.Naive_counter in
      let c = C.create ~n () in
      Some ((fun () -> C.read c), fun ~pid -> C.increment c ~pid)
    | Dial dial ->
      let module C = Unboxed.Dial_counter in
      let c = C.create ~n ~dial () in
      Some
        ((fun () -> C.read c), fun ~pid -> C.increment_metered c ~metrics ~pid)
    | Impl (Aac_counter | Snapshot_counter _) -> None
  in
  Option.map
    (fun (read, increment) ->
      meter_counter ~metrics { Counters.Counter.increment; read })
    parts
