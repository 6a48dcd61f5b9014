(* Baseline: a max register as a single register updated with a CAS retry
   loop.  ReadMax is O(1); WriteMax is lock-free but not wait-free — its
   step complexity is bounded only by the number of concurrent successful
   writers (O(1) when run alone).  Included as the "obvious" CAS
   implementation against which Algorithm A's wait-freedom matters.

   Every attempt CASes with the value its read returned (the boxed
   compile's CAS can be physical).  The loop is a top-level
   self-recursive function: a local [let rec loop ()] would capture [t]
   and [value] in a fresh closure on every call (no flambda), defeating
   the unboxed compile's zero-allocation guarantee. *)

type t = Raw.t

let create () = Raw.make (Raw.of_int 0)

let read_max t = Raw.to_int (Raw.get t)

(* A single attempt of the retry loop, also the combining path of
   Harness.Adaptive.Cas (which the static flat-combining backend pins
   every update to): the uncontended case must stay exactly
   one read + one CAS, with the failure routed to the arena instead of
   a local retry.  Encoded as an int so the caller's dispatch stays
   allocation-free: 0 = value at or below the current maximum (the
   elimination case — the write linearizes at the read), 1 = CAS
   installed the value, 2 = CAS lost a race (contention: combine). *)
let[@inline] write_once t value =
  let cur = Raw.get t in
  if value <= Raw.to_int cur then 0
  else if Raw.cas t cur (Raw.of_int value) then 1
  else 2

(* The retry loop, until the value is installed or subsumed ([write_once]
   inlines here).  Returns [2 × failed CASes + 1 if a CAS installed the
   value]: both counts in one immediate int. *)
let rec cas_loop t value acc =
  let r = write_once t value in
  if r = 2 then cas_loop t value (acc + 2) else acc + r

(* WriteMax, recording its CAS attempts and failures under shard [pid]:
   the retry count the Theorem 3 adversary drives to Theta(K). *)
let write_max_metered t ~metrics ~pid value =
  if value < 0 then invalid_arg "Cas_maxreg.write_max: negative value";
  let r = cas_loop t value 0 in
  if metrics.Obs.Metrics.enabled then begin
    Obs.Metrics.add metrics ~domain:pid Obs.Metrics.Cas_attempt (r - (r lsr 1));
    Obs.Metrics.add metrics ~domain:pid Obs.Metrics.Cas_failure (r lsr 1)
  end

let write_max t ~pid value =
  write_max_metered t ~metrics:Obs.Metrics.disabled ~pid value
