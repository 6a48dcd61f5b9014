(* Per-domain sharded contention counters.

   The paper's cost model is exact step counts; on hardware the analogous
   observables are how often the steps *fail or repeat*: CAS attempts vs
   failures, propagate refresh rounds, helping events.  Aggregate Mops/s
   hides all of that, which is exactly the write-contention behaviour the
   bounded-write-contention lower bounds reason about.

   Layout: one padded [int Atomic.t] cell per (domain, counter) pair, so a
   recording domain touches only lines it owns — instrumentation must not
   itself create the cache-line traffic it is trying to observe.  Each cell
   is single-writer (its domain), so recording needs no CAS: a load and an
   [Atomic.set].  That store is still an RMW: OCaml 5.1 defines
   [Atomic.set r x] as [ignore (exchange r x)], a call to
   [caml_atomic_exchange] and a locked exchange once a second domain
   runs; it stays on a line the domain owns.  [merged] sums the shards
   with atomic reads (merge-on-read, no coordination with writers).

   The no-op mode is a handle with [enabled = false] and no shards: every
   record call is one immediate-bool test and branch, no allocation, no
   shared-memory traffic.  [test/test_obs.ml] pins the zero-allocation
   claim with a [Gc.minor_words] delta and CI runs an overhead guard. *)

type counter =
  | Cas_attempt
  | Cas_failure
  | Refresh_round
  | Help
  | Op_read
  | Op_update
  | Fault_yield
  | Fault_gc
  | Fault_stall

let n_counters = 9

let counter_index = function
  | Cas_attempt -> 0
  | Cas_failure -> 1
  | Refresh_round -> 2
  | Help -> 3
  | Op_read -> 4
  | Op_update -> 5
  | Fault_yield -> 6
  | Fault_gc -> 7
  | Fault_stall -> 8

let counter_name = function
  | Cas_attempt -> "cas_attempts"
  | Cas_failure -> "cas_failures"
  | Refresh_round -> "refresh_rounds"
  | Help -> "helps"
  | Op_read -> "op_reads"
  | Op_update -> "op_updates"
  | Fault_yield -> "fault_yields"
  | Fault_gc -> "fault_gcs"
  | Fault_stall -> "fault_stalls"

let all_counters =
  [ Cas_attempt; Cas_failure; Refresh_round; Help; Op_read; Op_update;
    Fault_yield; Fault_gc; Fault_stall ]

type t = {
  enabled : bool;
  mask : int;  (* shard count - 1; shard count is a power of two *)
  shards : int Atomic.t array array;  (* shards.(domain).(counter) *)
}

let rec pow2_at_least k n = if k >= n then k else pow2_at_least (2 * k) n

let create ?(enabled = true) ~domains () =
  if domains <= 0 then invalid_arg "Metrics.create: domains must be > 0";
  let n = pow2_at_least 1 domains in
  { enabled;
    mask = n - 1;
    shards =
      Array.init n (fun _ ->
          Array.init n_counters (fun _ -> Smem.Unboxed_memory.Padded.make 0)) }

(* The shared no-op handle: no shards are ever touched because [enabled]
   is checked first.  Sharing one handle keeps "metrics off" free of even
   the construction cost. *)
let disabled = { enabled = false; mask = 0; shards = [||] }

let enabled t = t.enabled

(* Single-writer per shard: a load and an [Atomic.set] (one exchange,
   see the header), no CAS loop.  [domain land mask] tolerates pids beyond the shard count (they
   fold onto existing shards; totals stay exact). *)
let add t ~domain c n =
  if t.enabled then begin
    let cell = t.shards.(domain land t.mask).(counter_index c) in
    Atomic.set cell (Atomic.get cell + n)
  end

let incr t ~domain c = add t ~domain c 1

type totals = {
  cas_attempts : int;
  cas_failures : int;
  refresh_rounds : int;
  helps : int;
  op_reads : int;
  op_updates : int;
  fault_yields : int;
  fault_gcs : int;
  fault_stalls : int;
}

let zero_totals =
  { cas_attempts = 0; cas_failures = 0; refresh_rounds = 0; helps = 0;
    op_reads = 0; op_updates = 0; fault_yields = 0; fault_gcs = 0;
    fault_stalls = 0 }

let sum t c =
  let i = counter_index c in
  Array.fold_left (fun acc row -> acc + Atomic.get row.(i)) 0 t.shards

let totals t =
  if not t.enabled then zero_totals
  else
    { cas_attempts = sum t Cas_attempt;
      cas_failures = sum t Cas_failure;
      refresh_rounds = sum t Refresh_round;
      helps = sum t Help;
      op_reads = sum t Op_read;
      op_updates = sum t Op_update;
      fault_yields = sum t Fault_yield;
      fault_gcs = sum t Fault_gc;
      fault_stalls = sum t Fault_stall }

let total_of totals = function
  | Cas_attempt -> totals.cas_attempts
  | Cas_failure -> totals.cas_failures
  | Refresh_round -> totals.refresh_rounds
  | Help -> totals.helps
  | Op_read -> totals.op_reads
  | Op_update -> totals.op_updates
  | Fault_yield -> totals.fault_yields
  | Fault_gc -> totals.fault_gcs
  | Fault_stall -> totals.fault_stalls

let reset t =
  Array.iter (fun row -> Array.iter (fun c -> Atomic.set c 0) row) t.shards

let pp_totals ppf t =
  Fmt.pf ppf "cas=%d/%d (%.1f%% failed) refreshes=%d helps=%d ops=%dr/%du"
    t.cas_failures t.cas_attempts
    (if t.cas_attempts = 0 then 0.
     else 100. *. float_of_int t.cas_failures /. float_of_int t.cas_attempts)
    t.refresh_rounds t.helps t.op_reads t.op_updates;
  if t.fault_yields + t.fault_gcs + t.fault_stalls > 0 then
    Fmt.pf ppf " faults=%dy/%dg/%ds" t.fault_yields t.fault_gcs t.fault_stalls
