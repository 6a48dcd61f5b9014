(* Flat combining for the max register's WriteMax.

   The paper's tradeoff makes updates the expensive side (Ω-log-ish cost
   so reads stay O(1)); but WriteMax is *combinable*: n concurrent
   WriteMax(v_i) are equivalent to one WriteMax(max v_i).  This module
   is the engine:

   - one cache-padded publication slot per domain (an op is an immediate
     int; [empty] = min_int is "no pending op");
   - a CAS-acquired combiner lock.  The acquirer applies the max of its
     own op and every pending slot in ONE call of [apply] (one leaf
     write + one propagation for the whole batch), then clears the
     drained slots and releases;
   - waiters spin on their own slot (an owned padded line) with a
     bounded cpu_relax budget, then fall back to [Unix.sleepf] — on an
     oversubscribed host a pure spin would burn the very timeslice the
     combiner needs to run;
   - [domains = 1] bypasses the arena entirely: a single participating
     domain cannot contend, so [submit] degenerates to one branch plus
     the [apply] call (a single-domain run must not pay for machinery
     it cannot use).

   The linearizability argument (DESIGN.md §12) hinges on one ordering:
   a slot is cleared only AFTER the combined op has been applied, and a
   waiter returns only once its slot reads [empty].  The waiter's op
   therefore linearizes at the combiner's apply point, where an op that
   subsumes it (a max >= its value) took effect.

   Stats are per-domain single-writer padded cells (same discipline as
   Obs.Metrics shards: a load and an [Atomic.set], no CAS), merged on
   read.  The [Atomic.set] is still an RMW: OCaml 5.1 defines it as
   [ignore (exchange r x)], a locked exchange once a second domain
   runs.  The lock-held counters (locks, batches, combined, batch_max)
   are Atomic cells — their cost hides behind the lock CAS they follow.
   Elimination tallies are the one stat recorded on the LOCK-FREE fast
   path: an [Atomic.set] there is a locked exchange that would tax
   the very operations elimination exists to make free, so they live in
   a plain int array at cache-line stride (one single-writer cell per
   domain, no RMW, no fence).  Plain cells are exact at quiescence —
   [Domain.join] orders the writers' stores before the reader's loads —
   which is the only time this repo reads them (after workers join:
   tests and chaos soaks after runs complete); a concurrent
   [stats] call may observe a slightly stale elimination count, nothing
   worse. *)

type t = {
  domains : int;
  spin : int;  (* cpu_relax rounds between lock attempts before sleeping *)
  sleep : float -> unit;  (* Unix.sleepf, or a scripted clock in tests *)
  backoff : float array;  (* park sleep schedule: yield_s doubling to the cap *)
  slots : int Atomic.t array;  (* padded; [empty] = no pending op *)
  lock : int Atomic.t;  (* padded; 0 free, 1 held *)
  (* per-domain single-writer stat cells, all padded *)
  s_locks : int Atomic.t array;
  s_batches : int Atomic.t array;
  s_combined : int Atomic.t array;
  s_batch_max : int Atomic.t array;
  s_elims : int array;  (* plain, strided: fast-path tally, see above *)
}

let empty = Unboxed_memory.bot

(* One publication slot per domain and a bitmask over them: 62 is the
   immediate-int bit budget (the checker's burst bound happens to agree). *)
let max_domains = 62

(* 16 immediates = 128 bytes between elimination cells: two full cache
   lines on common hardware, so adjacent domains' tallies never share
   a line. *)
let elim_stride = 16

(* Park sleeps double from [yield_s] up to [yield_s * 2^backoff_doublings]
   (default 50µs .. 3.2ms): a waiter parked across many combiner rounds
   stops hammering the scheduler, while the cap keeps wakeup latency
   bounded once the combiner finally runs.  Precomputed at create so the
   parked loop does no float arithmetic (R3 keeps it allocation-free). *)
let backoff_doublings = 6

let create ?(spin = 256) ?(yield_s = 0.00005) ?(sleep = Unix.sleepf) ~domains
    () =
  if domains <= 0 || domains > max_domains then
    invalid_arg "Combine.create: domains out of [1, 62]";
  if spin < 0 then invalid_arg "Combine.create: negative spin";
  if not (yield_s > 0.) then
    invalid_arg "Combine.create: non-positive yield_s";
  let cells n = Array.init n (fun _ -> Unboxed_memory.Padded.make 0) in
  { domains;
    spin;
    sleep;
    backoff =
      Array.init (backoff_doublings + 1) (fun i ->
          yield_s *. float_of_int (1 lsl i));
    slots = Array.init domains (fun _ -> Unboxed_memory.Padded.make empty);
    lock = Unboxed_memory.Padded.make 0;
    s_locks = cells domains;
    s_batches = cells domains;
    s_combined = cells domains;
    s_batch_max = cells domains;
    s_elims = Array.make (domains * elim_stride) 0 }

let domains t = t.domains

let[@inline] imax (a : int) b = if a >= b then a else b

(* Single-writer bumps on an owned padded cell: a load and an
   [Atomic.set], which is one exchange (see the header). *)
let bump cell n = Atomic.set cell (Atomic.get cell + n)
let bump_max cell v = if v > Atomic.get cell then Atomic.set cell v

(* Fast-path tally: plain load + store on the domain's own strided
   cell — no fence, no RMW (see the header note on why not Atomic). *)
let record_elimination t ~domain =
  if domain < 0 || domain >= t.domains then
    invalid_arg "Combine.record_elimination: bad domain";
  let i = domain * elim_stride in
  Array.unsafe_set t.s_elims i (Array.unsafe_get t.s_elims i + 1)

(* The drain helpers are top-level self-recursive functions over int
   accumulators: a local [let rec] would close over [t]/[mask] in a fresh
   block per call (no flambda), and any tuple return would allocate —
   both would fail the Gc zero-allocation guard in test_combining.ml. *)

let rec scan_mask t i acc =
  if i >= t.domains then acc
  else
    scan_mask t (i + 1)
      (if Atomic.get (Array.unsafe_get t.slots i) <> empty then
         acc lor (1 lsl i)
       else acc)

(* Slots selected by [mask] are stable: their owners are parked until the
   combiner clears them, so reading them again here is race-free.  The
   fold starts from the combiner's own op, or from [empty] = min_int
   when that op sits in the slots too; max with min_int is the
   identity. *)
let rec gather t i mask acc =
  if i >= t.domains then acc
  else
    gather t (i + 1) mask
      (if mask land (1 lsl i) <> 0 then
         imax acc (Atomic.get (Array.unsafe_get t.slots i))
       else acc)

let rec clear_slots t i mask =
  if i < t.domains then begin
    if mask land (1 lsl i) <> 0 then
      Atomic.set (Array.unsafe_get t.slots i) empty;
    clear_slots t (i + 1) mask
  end

let rec popcount m acc = if m = 0 then acc else popcount (m lsr 1) (acc + (m land 1))

(* Called with the lock held.  [own] is the combiner's not-yet-published
   op ([empty] when its op sits in the slots like everyone else's).  The
   clear MUST follow the apply: an empty slot is the waiters' completion
   signal. *)
let apply_batch t ~domain ~apply ~mask ~own =
  let combined = gather t 0 mask own in
  apply domain combined;
  clear_slots t 0 mask;
  let k = popcount mask 0 + if own <> empty then 1 else 0 in
  if k >= 2 then begin
    bump (Array.unsafe_get t.s_batches domain) 1;
    bump (Array.unsafe_get t.s_combined domain) k;
    bump_max (Array.unsafe_get t.s_batch_max domain) k
  end

(* Park on the own (published) slot: an empty read means a combiner
   applied us.  Between lock attempts, spin [t.spin] rounds once, then
   sleep with capped exponential backoff — on a 1-core host the sleep is
   what lets the combiner run at all.  [spins] is NOT reset after a
   sleep: the spin budget is a one-time grace before the first park, and
   a long-parked waiter re-burning it between every sleep would spend
   its whole timeslice in cpu_relax exactly when the host is most
   oversubscribed.  Each sleep re-checks the slot and the lock first, so
   backoff never delays a waiter whose op is already applied, nor one
   that can become the combiner itself. *)
let rec wait_or_combine t ~domain ~apply spins park =
  if Atomic.get (Array.unsafe_get t.slots domain) = empty then ()
  else if Atomic.get t.lock = 0 && Atomic.compare_and_set t.lock 0 1 then begin
    bump (Array.unsafe_get t.s_locks domain) 1;
    (* the emptiness check raced the acquire: a combiner may have
       applied us in between *)
    if Atomic.get (Array.unsafe_get t.slots domain) <> empty then
      apply_batch t ~domain ~apply ~mask:(scan_mask t 0 0) ~own:empty;
    Atomic.set t.lock 0
  end
  else if spins >= t.spin then begin
    t.sleep (Array.unsafe_get t.backoff park);
    wait_or_combine t ~domain ~apply spins
      (if park + 1 < Array.length t.backoff then park + 1 else park)
  end
  else begin
    Domain.cpu_relax ();
    wait_or_combine t ~domain ~apply (spins + 1) park
  end

let submit t ~domain ~apply op =
  if domain < 0 || domain >= t.domains then
    invalid_arg "Combine.submit: bad domain";
  if op = empty then invalid_arg "Combine.submit: op is the empty sentinel";
  if t.domains = 1 then apply domain op
  else if Atomic.get t.lock = 0 && Atomic.compare_and_set t.lock 0 1 then begin
    (* combiner path without publishing: the common uncontended case is
       one lock CAS, the [apply], a slot scan of owned lines, one
       release store *)
    bump (Array.unsafe_get t.s_locks domain) 1;
    apply_batch t ~domain ~apply ~mask:(scan_mask t 0 0) ~own:op;
    Atomic.set t.lock 0
  end
  else begin
    Atomic.set (Array.unsafe_get t.slots domain) op;
    wait_or_combine t ~domain ~apply 0 0
  end

(* {1 Merge-on-read stats} *)

type stats = {
  lock_acquisitions : int;
  batches : int;
  combined_ops : int;
  batch_max : int;
  eliminations : int;
}

let zero_stats =
  { lock_acquisitions = 0;
    batches = 0;
    combined_ops = 0;
    batch_max = 0;
    eliminations = 0 }

let sum_cells cells = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 cells

let max_cells cells =
  Array.fold_left (fun acc c -> max acc (Atomic.get c)) 0 cells

let sum_elims t =
  let acc = ref 0 in
  for d = 0 to t.domains - 1 do
    acc := !acc + t.s_elims.(d * elim_stride)
  done;
  !acc

let stats t =
  { lock_acquisitions = sum_cells t.s_locks;
    batches = sum_cells t.s_batches;
    combined_ops = sum_cells t.s_combined;
    batch_max = max_cells t.s_batch_max;
    eliminations = sum_elims t }

let reset_stats t =
  let zero cells = Array.iter (fun c -> Atomic.set c 0) cells in
  zero t.s_locks;
  zero t.s_batches;
  zero t.s_combined;
  zero t.s_batch_max;
  Array.fill t.s_elims 0 (Array.length t.s_elims) 0
