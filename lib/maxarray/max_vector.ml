(* N-component max vectors: the generalization of {!Max_array} that [3]'s
   snapshot construction composes — m max registers readable atomically
   together.  Built from an f-array with componentwise-max aggregation
   (read/write/CAS): MaxScan is one read of the root, MaxUpdate O(log n).

   Each of the n processes owns a leaf announcing its per-component maxima;
   the root aggregates componentwise.  Leaf writes skip no-ops so values
   never repeat (ABA-free CAS propagation). *)

open Memsim

module Make (M : Smem.Memory_intf.MEMORY) = struct
  module F = Boxed.Farray

  type t = { farray : F.t; n : int; m : int }

  let vec_max m x y =
    match x, y with
    | Simval.Bot, v | v, Simval.Bot -> v
    | Simval.Vec a, Simval.Vec b when Array.length a = m && Array.length b = m
      ->
      Simval.Vec
        (Array.init m (fun i ->
             Simval.Int
               (max (Simval.int_or ~default:0 a.(i))
                  (Simval.int_or ~default:0 b.(i)))))
    | (Simval.Int _ | Simval.Vec _), _ -> invalid_arg "Max_vector: bad node"

  let create ~n ~m =
    if n <= 0 then invalid_arg "Max_vector.create: n must be > 0";
    if m <= 0 then invalid_arg "Max_vector.create: m must be > 0";
    { farray =
        Boxed.Raw.with_memory (module M) (fun () ->
            F.create ~n ~combine:(vec_max m) ());
      n;
      m }

  let components t = t.m

  let decode t = function
    | Simval.Bot -> Array.make t.m 0
    | Simval.Vec _ as v -> Simval.to_int_array v
    | Simval.Int _ -> invalid_arg "Max_vector: bad value"

  let max_update t ~pid ~component v =
    if pid < 0 || pid >= t.n then invalid_arg "Max_vector.max_update: bad pid";
    if component < 0 || component >= t.m then
      invalid_arg "Max_vector.max_update: bad component";
    if v < 0 then invalid_arg "Max_vector.max_update: negative value";
    let own = decode t (F.read_leaf t.farray pid) in
    if v > own.(component) then begin
      own.(component) <- v;
      F.update t.farray ~leaf:pid (Simval.of_int_array own)
    end

  (* One shared-memory event. *)
  let max_scan t = decode t (F.read t.farray)
end
