(* The base-object interface of the paper's model: base objects support
   read, write and CAS, applied atomically.

   Structures are written against a [Raw] cell module, not against
   MEMORY: MEMORY is the substrate of the boxed [Raw] (lib/smem/boxed,
   bound per domain by [Boxed.Raw.with_memory] while a structure is
   built) — the simulator, the counting memory, OCaml 5 atomics and the
   chaos wrappers.  The int-valued structures of lib/structures also
   compile against lib/smem/unboxed's [Raw] (bare int Atomic.t). *)

module type MEMORY = sig
  (** Base objects holding a {!Memsim.Simval.t}. *)

  type t
  (** A base object. *)

  val make : Memsim.Simval.t -> t
  (** Allocate a base object with an initial value.  Allocation happens when
      an implementation builds its data structure (the initial
      configuration); it is not a step. *)

  val read : t -> Memsim.Simval.t

  val write : t -> Memsim.Simval.t -> unit

  val cas : t -> expected:Memsim.Simval.t -> desired:Memsim.Simval.t -> bool
  (** Compare-and-swap: atomically, if the object's value equals [expected],
      set it to [desired] and return [true]; otherwise return [false]. *)
end
