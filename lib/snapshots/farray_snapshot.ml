(* A Jayanti-style snapshot from an f-array whose aggregation is tuple
   concatenation: internal nodes hold the (pid, seq, value) triples of their
   subtree's segments, so the root holds the whole array and Scan is a
   single read — the optimal point of the paper's Theorem 1 tradeoff
   (Scan O(1), Update O(log N), using CAS).

   Sequence numbers make every leaf value unique, so node values never
   recur and the double-refresh CAS propagation is ABA-free.  This stands
   in for the restricted-use snapshot of Aspnes et al. [3] (see DESIGN.md:
   same polylog envelope, simpler construction, CAS allowed by Theorem 1). *)

open Memsim

module Make (M : Smem.Memory_intf.MEMORY) = struct
  module F = Boxed.Farray

  type t = { farray : F.t; seqs : int array; n : int }

  let items = function
    | Simval.Bot -> [||]
    | Simval.Vec triples -> triples
    | Simval.Int _ -> invalid_arg "Farray_snapshot: bad node value"

  let concat a b = Simval.Vec (Array.append (items a) (items b))

  let create ~n =
    if n <= 0 then invalid_arg "Farray_snapshot.create: n must be > 0";
    { farray =
        Boxed.Raw.with_memory (module M) (fun () ->
            F.create ~n ~combine:concat ());
      seqs = Array.make n 0;
      n }

  let update t ~pid v =
    if pid < 0 || pid >= t.n then invalid_arg "Farray_snapshot.update: bad pid";
    (* seqs.(pid) is process-local state of the single writer of leaf pid *)
    t.seqs.(pid) <- t.seqs.(pid) + 1;
    let triple =
      Simval.Vec [| Simval.Int pid; Simval.Int t.seqs.(pid); Simval.Int v |]
    in
    F.update t.farray ~leaf:pid (Simval.Vec [| triple |])

  let scan t =
    let out = Array.make t.n 0 in
    Array.iter
      (fun triple ->
        match triple with
        | Simval.Vec [| Simval.Int pid; Simval.Int _; Simval.Int v |] ->
          out.(pid) <- v
        | Simval.Bot | Simval.Int _ | Simval.Vec _ ->
          invalid_arg "Farray_snapshot: bad triple")
      (items (F.read t.farray));
    out
end
