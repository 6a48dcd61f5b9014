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
module F = Boxed.Farray

type t = { farray : F.t; n : int }

let items = function
  | Simval.Bot -> [||]
  | Simval.Vec triples -> triples
  | Simval.Int _ -> invalid_arg "Farray_snapshot: bad node value"

let concat a b = Simval.Vec (Array.append (items a) (items b))

let create ~n () =
  if n <= 0 then invalid_arg "Farray_snapshot.create: n must be > 0";
  { farray = F.create ~n ~combine:concat (); n }

(* Set the caller's leaf to [v], or to its value plus [v] if [add].  The
   caller is the leaf's single writer, so one read of the leaf gives it
   its last sequence number and value. *)
let write_own t ~pid ~add v =
  if pid < 0 || pid >= t.n then invalid_arg "Farray_snapshot.update: bad pid";
  let seq, x =
    match F.read_leaf t.farray pid with
    | Simval.Bot -> (0, 0)
    | Simval.Vec [| Simval.Vec [| Simval.Int _; Simval.Int seq; Simval.Int x |] |] ->
      (seq, x)
    | Simval.Int _ | Simval.Vec _ -> invalid_arg "Farray_snapshot: bad leaf"
  in
  let v = if add then x + v else v in
  let triple =
    Simval.Vec [| Simval.Int pid; Simval.Int (seq + 1); Simval.Int v |]
  in
  F.update t.farray ~leaf:pid (Simval.Vec [| triple |])

let update t ~pid v = write_own t ~pid ~add:false v
let add t ~pid d = write_own t ~pid ~add:true d

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
