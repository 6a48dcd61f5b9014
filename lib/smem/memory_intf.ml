(* The base-object interface all algorithms are written against.

   The paper's model: base objects support read, write and CAS, applied
   atomically.  Algorithms run on the deterministic simulator (step
   counting, adversarial scheduling, linearizability testing) and on OCaml
   5 atomics (Domain-parallel benchmarks) either as functors over MEMORY
   (AAC, the snapshots) or, for the int-valued structures of
   lib/structures, as one source compiled against a [Raw] cell module per
   backend (lib/smem/boxed: Simval cells in any MEMORY; lib/smem/unboxed:
   int Atomic.t). *)

module type MEMORY = sig
  (** Base objects holding a {!Memsim.Simval.t}. *)

  type t
  (** A base object. *)

  val make : ?name:string -> Memsim.Simval.t -> t
  (** Allocate a base object with an initial value.  Allocation happens when
      an implementation builds its data structure (the initial
      configuration); it is not a step. *)

  val read : t -> Memsim.Simval.t

  val write : t -> Memsim.Simval.t -> unit

  val cas : t -> expected:Memsim.Simval.t -> desired:Memsim.Simval.t -> bool
  (** Compare-and-swap: atomically, if the object's value equals [expected],
      set it to [desired] and return [true]; otherwise return [false]. *)
end
