(* Common interface of single-writer atomic snapshot implementations.

   An N-component snapshot has one segment per process; [update] atomically
   sets the caller's segment, [add] adds to it, [scan] atomically reads all
   segments (sequential specification: a scan returns, per segment, the
   value the updates and adds of that segment left, or 0 if none). *)

module type S = sig
  type t

  val update : t -> pid:int -> int -> unit
  val add : t -> pid:int -> int -> unit
  val scan : t -> int array
end

(* A closed instance, for harnesses that treat implementations uniformly. *)
type instance = {
  update : pid:int -> int -> unit;
  add : pid:int -> int -> unit;
  scan : unit -> int array;
}

let instantiate (type a) (module I : S with type t = a) (s : a) =
  { update = (fun ~pid v -> I.update s ~pid v);
    add = (fun ~pid d -> I.add s ~pid d);
    scan = (fun () -> I.scan s) }
