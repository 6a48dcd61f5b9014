(** Common interface of single-writer atomic snapshot implementations.

    An N-component snapshot has one segment per process; [update]
    atomically sets the caller's segment, [add] adds to it, [scan]
    atomically reads all segments (each segment reads as what the updates
    and adds before it left there, or 0). *)

module type S = sig
  type t

  val update : t -> pid:int -> int -> unit

  val add : t -> pid:int -> int -> unit
  (** [add t ~pid d] sets the caller's segment to its value plus [d], in
      the steps of one {!update}.  The caller is its segment's single
      writer, so it reads its own last value there: a process keeps no
      private copy of it, and a body re-run from its start by a
      simulator restart counts nothing twice. *)

  val scan : t -> int array
end

(** A closed instance, for harnesses that treat implementations
    uniformly. *)
type instance = {
  update : pid:int -> int -> unit;
  add : pid:int -> int -> unit;
  scan : unit -> int array;
}

val instantiate : (module S with type t = 'a) -> 'a -> instance
