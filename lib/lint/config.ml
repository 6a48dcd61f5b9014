type allow =
  | Dir of string
  | Module_path of string list

type r3_mode = Body | Loops

type r3_target = {
  qual : string list;
  mode : r3_mode;
}

type t = {
  scope_dirs : string list;
  r1_banned : string list;
  r1_allow : allow list;
  r2_dirs : string list;
  r2_reads : string list;
  r2_cas : string list;
  r3_targets : r3_target list;
  r4_dirs : string list;
  r4_allow : string list;
}

(* The repo's discipline, as data.  Growing the allowlists is a reviewed
   change to this file, not an edit at the violation site. *)

let default =
  { (* R1-R3 lint the library and executable trees; test/ (fixtures,
       qcheck harnesses) and examples/ (standalone native demos) are out
       of scope. *)
    scope_dirs = [ "lib"; "bin"; "bench" ];
    (* R1: the concurrency and representation escape hatches.  Everything
       outside the allowlist must reach shared memory through the
       MEMORY signature or the [Raw] cells (lib/smem), the observability
       layer, or the throughput harness. *)
    r1_banned = [ "Atomic"; "Obj"; "Domain"; "Mutex"; "Condition"; "Semaphore" ];
    r1_allow =
      [ (* the memory layer itself: boxed/unboxed/counting/sim backends,
           the Obj-built Padded blocks, Lazy_cell, the flat-combining
           arena (Combine: publication slots, combiner lock,
           single-writer stat cells), and the two Raw cell modules
           lib/structures is compiled against (lib/smem/unboxed: the
           Atomic primitives as externals; lib/smem/boxed: the
           per-domain memory binding) *)
        Dir "lib/smem";
        (* single-writer metric shards and their padded cells *)
        Dir "lib/obs";
        (* domain spawning, stop flags and publish slots of the
           measurement harness *)
        Dir "lib/harness/throughput.ml";
        (* chaos injection primitives: cpu_relax storms, DLS-keyed
           deterministic dice, domain spawning and the shared stamp
           clock — submodule-granular so raw atomics anywhere else in
           chaos.ml still get flagged *)
        Module_path [ "Chaos"; "Inject" ];
        (* the adaptive dispatcher's controller: padded mode cell and
           epoch lock, single-writer per-domain tick cells — submodule-
           granular so the structure modules in adaptive.ml must go
           through Ctl rather than touching atomics directly *)
        Module_path [ "Adaptive"; "Ctl" ] ];
    (* R2: the libraries holding the paper's algorithms.  An unbounded
       loop there that never re-reads shared memory can spin forever on
       stale state — the syntactic complement of E9's liveness audit. *)
    r2_dirs =
      [ "lib/structures"; "lib/maxreg"; "lib/counters"; "lib/treeprim" ];
    r2_reads =
      [ "read"; "get"; "read_max"; "read_leaf"; "child_value"; "scan";
        "collect"; "fetch_and_add" ];
    r2_cas =
      [ "cas"; "cas_same"; "compare_and_set"; "compare_exchange";
        "fetch_and_add" ];
    (* R3: the zero-allocation claims pinned statically.  [Body] checks a
       whole function body; [Loops] checks only while/for bodies inside
       the function (measurement epilogues may allocate, timed loops may
       not).  The latency runner is deliberately absent: its timed loop
       boxes one int64 per batch by design (see throughput.mli). *)
    r3_targets =
      [ { qual = [ "Metrics"; "add" ]; mode = Body };
        { qual = [ "Metrics"; "incr" ]; mode = Body };
        { qual = [ "Algorithm_a"; "read_max" ]; mode = Body };
        { qual = [ "Algorithm_a"; "write_max" ]; mode = Body };
        { qual = [ "Algorithm_a"; "write_max_metered" ]; mode = Body };
        { qual = [ "Cas_maxreg"; "read_max" ]; mode = Body };
        { qual = [ "Cas_maxreg"; "write_once" ]; mode = Body };
        { qual = [ "Cas_maxreg"; "cas_loop" ]; mode = Body };
        { qual = [ "Cas_maxreg"; "write_max" ]; mode = Body };
        { qual = [ "Cas_maxreg"; "write_max_metered" ]; mode = Body };
        { qual = [ "B1_maxreg"; "switch_set" ]; mode = Body };
        { qual = [ "B1_maxreg"; "write" ]; mode = Body };
        { qual = [ "B1_maxreg"; "read" ]; mode = Body };
        { qual = [ "Farray"; "read" ]; mode = Body };
        { qual = [ "Farray"; "read_leaf" ]; mode = Body };
        { qual = [ "Farray"; "update" ]; mode = Body };
        { qual = [ "Farray"; "update_metered" ]; mode = Body };
        { qual = [ "Naive_counter"; "increment" ]; mode = Body };
        { qual = [ "Naive_counter"; "read" ]; mode = Body };
        { qual = [ "Farray_counter"; "increment" ]; mode = Body };
        { qual = [ "Farray_counter"; "increment_metered" ]; mode = Body };
        { qual = [ "Farray_counter"; "read" ]; mode = Body };
        (* the counters' batched add: the combining apply, and the
           adaptive instances' solo and plain update *)
        { qual = [ "Farray_counter"; "add" ]; mode = Body };
        { qual = [ "Farray_counter"; "add_metered" ]; mode = Body };
        { qual = [ "Naive_counter"; "add" ]; mode = Body };
        { qual = [ "Dial_counter"; "increment" ]; mode = Body };
        { qual = [ "Dial_counter"; "increment_metered" ]; mode = Body };
        { qual = [ "Dial_counter"; "add" ]; mode = Body };
        { qual = [ "Dial_counter"; "add_metered" ]; mode = Body };
        { qual = [ "Dial_counter"; "read" ]; mode = Body };
        { qual = [ "Dial_maxreg"; "read_max" ]; mode = Body };
        { qual = [ "Dial_maxreg"; "write_max" ]; mode = Body };
        { qual = [ "Dial_maxreg"; "write_max_metered" ]; mode = Body };
        { qual = [ "Propagate"; "child_value" ]; mode = Body };
        { qual = [ "Propagate"; "refresh" ]; mode = Body };
        { qual = [ "Propagate"; "walk" ]; mode = Body };
        { qual = [ "Propagate"; "propagate" ]; mode = Body };
        { qual = [ "Propagate"; "record" ]; mode = Body };
        { qual = [ "Throughput"; "run_alone" ]; mode = Loops };
        { qual = [ "Throughput"; "run_batched" ]; mode = Loops };
        (* the flat-combining arena hot paths: submit (fast path and
           publish), the combiner's drain, and the stat recorders —
           every one must stay allocation-free or the arena taxes the
           very operations it batches *)
        { qual = [ "Combine"; "bump" ]; mode = Body };
        { qual = [ "Combine"; "bump_max" ]; mode = Body };
        { qual = [ "Combine"; "record_elimination" ]; mode = Body };
        { qual = [ "Combine"; "scan_mask" ]; mode = Body };
        { qual = [ "Combine"; "gather" ]; mode = Body };
        { qual = [ "Combine"; "clear_slots" ]; mode = Body };
        { qual = [ "Combine"; "popcount" ]; mode = Body };
        { qual = [ "Combine"; "apply_batch" ]; mode = Body };
        { qual = [ "Combine"; "wait_or_combine" ]; mode = Body };
        { qual = [ "Combine"; "submit" ]; mode = Body };
        (* the adaptive dispatcher's per-update path: the mode check,
           the tick, the shared update kernel every structure
           instantiates (which is also the whole of the static
           combining backend), and each instance's read and update
           ops — the epoch advance itself is the deliberately
           untargeted rare path (it folds stats records and may
           allocate) *)
        { qual = [ "Adaptive"; "Ctl"; "combining" ]; mode = Body };
        { qual = [ "Adaptive"; "Ctl"; "tick" ]; mode = Body };
        { qual = [ "Adaptive"; "Ctl"; "note_stale" ]; mode = Body };
        { qual = [ "Adaptive"; "Kernel"; "check" ]; mode = Body };
        { qual = [ "Adaptive"; "Kernel"; "update_plain" ]; mode = Body };
        { qual = [ "Adaptive"; "Kernel"; "combining_path" ]; mode = Body };
        { qual = [ "Adaptive"; "Kernel"; "update_combining" ]; mode = Body };
        { qual = [ "Adaptive"; "Kernel"; "update" ]; mode = Body };
        { qual = [ "Adaptive"; "Alg_a"; "read_max" ]; mode = Body };
        { qual = [ "Adaptive"; "Alg_a"; "subsumed" ]; mode = Body };
        { qual = [ "Adaptive"; "Alg_a"; "try_update" ]; mode = Body };
        { qual = [ "Adaptive"; "Cas"; "read_max" ]; mode = Body };
        { qual = [ "Adaptive"; "Cas"; "subsumed" ]; mode = Body };
        { qual = [ "Adaptive"; "Farray_c"; "read" ]; mode = Body };
        { qual = [ "Adaptive"; "Farray_c"; "increment" ]; mode = Body };
        { qual = [ "Adaptive"; "Naive_c"; "read" ]; mode = Body };
        { qual = [ "Adaptive"; "Naive_c"; "increment" ]; mode = Body };
        { qual = [ "Adaptive"; "Naive_c"; "update" ]; mode = Body } ];
    (* R4: every library module pins its public surface.  Allowlist:
       signature-only modules (nothing to hide). *)
    r4_dirs = [ "lib"; "bench" ];
    r4_allow = [ "lib/smem/memory_intf.ml" ] }
