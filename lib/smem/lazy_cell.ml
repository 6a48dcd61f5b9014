(* Domain-safe lazy memoization: the one concurrency idiom the MEMORY
   signatures cannot express (the memoized value is an arbitrary heap
   structure, not a register value, and forcing is initial-configuration
   construction — not a step in the paper's accounting).  Centralized here
   so data-structure code never touches [Atomic] directly: rule R1 of
   bin/lint.exe confines raw atomics to lib/smem, lib/obs, the throughput
   harness and two allowlisted harness submodules.

   Racing forcers may build duplicate values; exactly one wins the CAS and
   the losers' results are dropped before anyone else can observe them, so
   [force] always returns the same physical value to every caller.  [make]
   must therefore tolerate being called more than once (all uses build
   fresh register trees, which is fine: the losing tree's registers are
   never touched again). *)

type 'a t = { cell : 'a option Atomic.t; build : unit -> 'a }

let make build = { cell = Atomic.make None; build }

let force t =
  match Atomic.get t.cell with
  | Some v -> v
  | None ->
    let v = t.build () in
    if Atomic.compare_and_set t.cell None (Some v) then v
    else Option.get (Atomic.get t.cell)
