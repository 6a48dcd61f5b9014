(* Baseline: a max register as a single register updated with a CAS retry
   loop.  ReadMax is O(1); WriteMax is lock-free but not wait-free — its
   step complexity is bounded only by the number of concurrent successful
   writers (O(1) when run alone).  Included as the "obvious" CAS
   implementation against which Algorithm A's wait-freedom matters. *)

open Memsim

module Make (M : Smem.Memory_intf.MEMORY) = struct
  type t = M.t

  let create () = M.make (Simval.Int 0)

  let read_max t = Simval.int_or ~default:0 (M.read t)

  let write_max t ~pid value =
    ignore pid;
    if value < 0 then invalid_arg "Cas_maxreg.write_max: negative value";
    let rec loop () =
      let cur = M.read t in
      let cur_int = Simval.int_or ~default:0 cur in
      if value > cur_int then
        if not (M.cas t ~expected:cur ~desired:(Simval.Int value)) then loop ()
    in
    loop ()
end

(* The same retry loop on a bare [int Atomic.t]: the whole operation is a
   read, an int compare and an immediate-int CAS — no box per attempt, so
   contended retries also stop hammering the allocator.  The Atomic
   primitives are applied directly (inline; through a MEMORY_INT functor
   each would be an indirect call) and the loop is a top-level
   self-recursive function: a local [let rec loop ()] would capture [t] and
   [value] in a fresh closure on every call (no flambda), defeating the
   zero-allocation guarantee.  [padded] (default true) gives the register
   its own cache line. *)
module Unboxed = struct
  type t = int Atomic.t

  let create ?(padded = true) () =
    if padded then Smem.Unboxed_memory.Padded.make 0
    else Smem.Unboxed_memory.make 0

  let read_max (t : t) = Atomic.get t

  let rec cas_loop (t : t) value =
    let cur = Atomic.get t in
    if value > cur then
      if not (Atomic.compare_and_set t cur value) then cas_loop t value

  let write_max t ~pid value =
    ignore pid;
    if value < 0 then invalid_arg "Cas_maxreg.write_max: negative value";
    cas_loop t value

  (* A single attempt of the retry loop, for the combining path of
     Harness.Adaptive.Cas (which the static flat-combining backend pins
     every update to): the uncontended case must stay exactly
     one read + one CAS, with the failure routed to the arena instead of
     a local retry.  Encoded as an int so the caller's dispatch stays
     allocation-free: 0 = value at or below the current maximum (the
     elimination case — the write linearizes at the read), 1 = CAS
     installed the value, 2 = CAS lost a race (contention: combine). *)
  let write_once (t : t) value =
    let cur = Atomic.get t in
    if value <= cur then 0
    else if Atomic.compare_and_set t cur value then 1
    else 2

  (* Metered retry loop: the interesting observable for the non-wait-free
     baseline is precisely how many CAS attempts a WriteMax needed — the
     quantity the Theorem 3 adversary drives to Theta(K). *)
  let rec cas_loop_metered ~metrics ~domain (t : t) value =
    let cur = Atomic.get t in
    if value > cur then begin
      Obs.Metrics.incr metrics ~domain Obs.Metrics.Cas_attempt;
      if not (Atomic.compare_and_set t cur value) then begin
        Obs.Metrics.incr metrics ~domain Obs.Metrics.Cas_failure;
        cas_loop_metered ~metrics ~domain t value
      end
    end

  let write_max_metered t ~metrics ~pid value =
    if not metrics.Obs.Metrics.enabled then write_max t ~pid value
    else begin
      if value < 0 then invalid_arg "Cas_maxreg.write_max: negative value";
      cas_loop_metered ~metrics ~domain:pid t value
    end
end
