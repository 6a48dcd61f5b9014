(* The implementation registry: build any implementation, bound to a
   simulator session or to native atomics, as a closed instance.  All
   experiment drivers (CLI, benches, adversaries, tests) go through this
   module so every surface exercises the same code. *)

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

   The structures of lib/structures run here as their boxed compile, the
   same source the unboxed backend runs natively, built inside
   [Boxed.Raw.with_memory] so their cells live in [m].  AAC and the
   snapshots are functors over MEMORY. *)

(* A closed instance of a boxed-compile structure built in [m]. *)
let boxed_maxreg (type r) m (module R : Maxreg.Max_register.S with type t = r)
    create =
  Maxreg.Max_register.instantiate (module R) (Boxed.Raw.with_memory m create)

let boxed_counter (type c) m (module C : Counters.Counter.S with type t = c)
    create =
  Counters.Counter.instantiate (module C) (Boxed.Raw.with_memory m create)

let maxreg_over (m : (module Smem.Memory_intf.MEMORY)) ~n ~bound impl :
    Maxreg.Max_register.instance =
  match impl with
  | Algorithm_a | Algorithm_a_literal ->
    let literal_early_return = impl = Algorithm_a_literal in
    boxed_maxreg m
      (module Boxed.Algorithm_a)
      (Boxed.Algorithm_a.create ~literal_early_return ~n)
  | Aac_maxreg ->
    let module A = Maxreg.Aac_maxreg.Make ((val m)) in
    Maxreg.Max_register.instantiate (module A) (A.create ~bound)
  | B1_maxreg -> boxed_maxreg m (module Boxed.B1_maxreg) Boxed.B1_maxreg.create
  | Cas_maxreg -> boxed_maxreg m (module Boxed.Cas_maxreg) Boxed.Cas_maxreg.create

let rec counter_over (m : (module Smem.Memory_intf.MEMORY)) ~n ~bound impl :
    Counters.Counter.instance =
  match impl with
  | Aac_counter ->
    let module C = Counters.Aac_counter.Make ((val m)) in
    Counters.Counter.instantiate (module C) (C.create ~n ~bound)
  | Farray_counter ->
    boxed_counter m (module Boxed.Farray_counter) (Boxed.Farray_counter.create ~n)
  | Naive_counter ->
    boxed_counter m (module Boxed.Naive_counter) (Boxed.Naive_counter.create ~n)
  | Snapshot_counter s -> counter_of_snapshot_over m ~n s

and snapshot_over (module M : Smem.Memory_intf.MEMORY) ~n impl :
    Snapshots.Snapshot.instance =
  match impl with
  | Double_collect ->
    let module S = Snapshots.Double_collect.Make (M) in
    Snapshots.Snapshot.instantiate (module S) (S.create ~n ())
  | Afek ->
    let module S = Snapshots.Afek_snapshot.Make (M) in
    Snapshots.Snapshot.instantiate (module S) (S.create ~n)
  | Farray_snapshot ->
    let module S = Snapshots.Farray_snapshot.Make (M) in
    Snapshots.Snapshot.instantiate (module S) (S.create ~n)

and counter_of_snapshot_over (module M : Smem.Memory_intf.MEMORY) ~n impl :
    Counters.Counter.instance =
  let make (type st) (module S : Snapshots.Snapshot.S with type t = st)
      (s : st) =
    let module C = Snapshots.Counter_of_snapshot.Make (S) in
    let c = C.create ~n s in
    { Counters.Counter.increment = (fun ~pid -> C.increment c ~pid);
      read = (fun () -> C.read c) }
  in
  match impl with
  | Double_collect ->
    let module S = Snapshots.Double_collect.Make (M) in
    make (module S) (S.create ~n ())
  | Afek ->
    let module S = Snapshots.Afek_snapshot.Make (M) in
    make (module S) (S.create ~n)
  | Farray_snapshot ->
    let module S = Snapshots.Farray_snapshot.Make (M) in
    make (module S) (S.create ~n)

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

(* {1 Unboxed snapshot construction over an arbitrary MEMORY_INT}

   The hybrid snapshot keeps its boxed vector inner nodes but is
   functorized over the leaf-register memory, so it still composes with
   any MEMORY_INT (including the counting instrumentation).  The maxreg
   and counter structures are not functors: their one source is
   compiled once per memory backend (lib/smem/unboxed, lib/smem/boxed),
   because without flambda a functor's indirect calls cost more than the
   memory operations themselves. *)

let snapshot_int_over (module M : Smem.Memory_intf.MEMORY_INT) ~n impl :
    Snapshots.Snapshot.instance option =
  match impl with
  | Farray_snapshot ->
    let module S = Snapshots.Hybrid_snapshot.Make (Smem.Atomic_memory) (M) in
    Some (Snapshots.Snapshot.instantiate (module S) (S.create ~n))
  | Double_collect | Afek -> None

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

   Every native fast-path instance comes from [maxreg_backend] /
   [counter_backend], keyed by a backend and a spec (an impl enum case
   or a dial point); the interface documents the metering contract.
   The unboxed backend is the unboxed compile itself.  The
   combining and adaptive backends are one {!Adaptive} instance over
   the same unboxed structure: adaptive dispatches per epoch, combining
   pins every update to the instance's combining path, so there is one
   combining implementation, not two.  [None] exactly where no such
   instance exists: AAC everywhere (no unboxed specialization), and on
   the dispatch backends also B1 (idempotent switch writes — no per-op
   propagation to batch), the literal-line-16 ablation (kept pure as
   the paper-faithful bug exhibit), the snapshot counters and the dial
   points. *)

let native_unboxed : (module Smem.Memory_intf.MEMORY_INT) =
  (module Smem.Unboxed_memory.Padded)

let snapshot_native_fast ~n impl = snapshot_int_over native_unboxed ~n impl

type 'impl spec = Impl of 'impl | Dial of Treeprim.Dial.t
type maxreg_spec = maxreg_impl spec
type counter_spec = counter_impl spec

type backend =
  | Unboxed
  | Combining
  | Adaptive of Adaptive.Policy.params option

type dispatch = {
  arena : Smem.Combine.t;
  report : unit -> Adaptive.report;
}

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

(* The plain unboxed structures, as a read and an update closure; the
   update is the [_metered] entry only under a live handle, so an
   unmetered instance calls exactly the raw op. *)

let unboxed_maxreg ~metrics ~n spec =
  let metered = Obs.Metrics.enabled metrics in
  match spec with
  | Impl ((Algorithm_a | Algorithm_a_literal) as impl) ->
    let module A = Unboxed.Algorithm_a in
    let reg =
      A.create ~literal_early_return:(impl = Algorithm_a_literal) ~n ()
    in
    Some
      ( (fun () -> A.read_max reg),
        if metered then fun ~pid v -> A.write_max_metered reg ~metrics ~pid v
        else fun ~pid v -> A.write_max reg ~pid v )
  | Impl Cas_maxreg ->
    let module A = Unboxed.Cas_maxreg in
    let reg = A.create () in
    Some
      ( (fun () -> A.read_max reg),
        if metered then fun ~pid v -> A.write_max_metered reg ~metrics ~pid v
        else fun ~pid v -> A.write_max reg ~pid v )
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
        if metered then fun ~pid v -> A.write_max_metered reg ~metrics ~pid v
        else fun ~pid v -> A.write_max reg ~pid v )
  | Impl Aac_maxreg -> None

let unboxed_counter ~metrics ~n spec =
  let metered = Obs.Metrics.enabled metrics in
  match spec with
  | Impl Farray_counter ->
    let module C = Unboxed.Farray_counter in
    let c = C.create ~n () in
    Some
      ( (fun () -> C.read c),
        if metered then fun ~pid -> C.increment_metered c ~metrics ~pid
        else fun ~pid -> C.increment c ~pid )
  | Impl Naive_counter ->
    (* single-writer cells, no CAS to meter *)
    let module C = Unboxed.Naive_counter in
    let c = C.create ~n () in
    Some ((fun () -> C.read c), fun ~pid -> C.increment c ~pid)
  | Impl (Snapshot_counter Farray_snapshot) ->
    let module S =
      Snapshots.Hybrid_snapshot.Make (Smem.Atomic_memory)
        (Smem.Unboxed_memory.Padded)
    in
    let module C = Snapshots.Counter_of_snapshot.Make (S) in
    let c = C.create ~n (S.create ~n) in
    Some ((fun () -> C.read c), fun ~pid -> C.increment c ~pid)
  | Dial dial ->
    let module C = Unboxed.Dial_counter in
    let c = C.create ~n ~dial () in
    Some
      ( (fun () -> C.read c),
        if metered then fun ~pid -> C.increment_metered c ~metrics ~pid
        else fun ~pid -> C.increment c ~pid )
  | Impl (Aac_counter | Snapshot_counter (Double_collect | Afek)) -> None

(* The dispatch backends: one adaptive instance over a fresh structure. *)
let dispatched (type s) (module A : Adaptive.S with type structure = s)
    ~metrics ~domains backend (s : s) =
  let policy =
    match backend with Adaptive p -> p | Unboxed | Combining -> None
  in
  let t = A.make ?policy ~metrics ~domains s in
  ( (fun () -> A.read t),
    (match backend with
     | Combining -> A.update_combining t
     | Unboxed | Adaptive _ -> A.update t),
    Some { arena = A.arena t; report = (fun () -> A.report t) } )

let maxreg_backend ?(metrics = Obs.Metrics.disabled) backend ~n ~domains spec
    =
  let parts =
    match (backend, spec) with
    | Unboxed, _ ->
      Option.map (fun (r, w) -> (r, w, None)) (unboxed_maxreg ~metrics ~n spec)
    | (Combining | Adaptive _), Impl Algorithm_a ->
      Some
        (dispatched (module Adaptive.Alg_a) ~metrics ~domains backend
           (Unboxed.Algorithm_a.create ~n ()))
    | (Combining | Adaptive _), Impl Cas_maxreg ->
      Some
        (dispatched (module Adaptive.Cas) ~metrics ~domains backend
           (Unboxed.Cas_maxreg.create ()))
    | ( (Combining | Adaptive _),
        (Impl (Algorithm_a_literal | Aac_maxreg | B1_maxreg) | Dial _) ) ->
      None
  in
  Option.map
    (fun (read_max, write_max, dispatch) ->
      (meter_maxreg ~metrics { Maxreg.Max_register.read_max; write_max },
       dispatch))
    parts

let counter_backend ?(metrics = Obs.Metrics.disabled) backend ~n ~domains
    spec =
  let on (type s) (module A : Adaptive.S with type structure = s) (s : s) =
    let read, update, dispatch =
      dispatched (module A) ~metrics ~domains backend s
    in
    Some (read, (fun ~pid -> update ~pid 1), dispatch)
  in
  let parts =
    match (backend, spec) with
    | Unboxed, _ ->
      Option.map (fun (r, i) -> (r, i, None)) (unboxed_counter ~metrics ~n spec)
    | (Combining | Adaptive _), Impl Farray_counter ->
      on (module Adaptive.Farray_c) (Unboxed.Farray_counter.create ~n ())
    | (Combining | Adaptive _), Impl Naive_counter ->
      on (module Adaptive.Naive_c) (Unboxed.Naive_counter.create ~n ())
    | (Combining | Adaptive _), (Impl (Aac_counter | Snapshot_counter _) | Dial _)
      ->
      None
  in
  Option.map
    (fun (read, increment, dispatch) ->
      (meter_counter ~metrics { Counters.Counter.increment; read }, dispatch))
    parts
