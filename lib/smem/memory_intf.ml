(* The base-object interface all algorithms are written against.

   The paper's model: base objects support read, write and CAS, applied
   atomically.  Algorithms run on the deterministic simulator (step
   counting, adversarial scheduling, linearizability testing) and on OCaml
   5 atomics (Domain-parallel benchmarks) either as functors over MEMORY
   (AAC, the snapshots) or, for the int-valued structures of
   lib/structures, as one source compiled against a [Raw] cell module per
   backend (lib/smem/boxed: Simval cells in any MEMORY; lib/smem/unboxed:
   int Atomic.t).

   MEMORY is the [Memsim.Simval.t]-valued instance of the general signature
   MEMORY_GEN; MEMORY_INT is the int-valued instance used by the unboxed
   native backend, where the paper's initial value "-infinity" ([Bot]) is
   encoded as a sentinel rather than a constructor so that the hot paths
   never allocate. *)

module type MEMORY_GEN = sig
  type value
  (** The values a base object holds. *)

  type t
  (** A base object. *)

  val make : ?name:string -> value -> t
  (** Allocate a base object with an initial value.  Allocation happens when
      an implementation builds its data structure (the initial
      configuration); it is not a step. *)

  val read : t -> value

  val write : t -> value -> unit

  val cas : t -> expected:value -> desired:value -> bool
  (** Compare-and-swap: atomically, if the object's value equals [expected],
      set it to [desired] and return [true]; otherwise return [false]. *)
end

module type MEMORY = sig
  (** Base objects holding a {!Memsim.Simval.t}. *)

  include MEMORY_GEN with type value := Memsim.Simval.t
end

module type MEMORY_INT = sig
  (** Base objects holding a bare [int] — the unboxed backend.

      [bot] is the sentinel standing in for {!Memsim.Simval.Bot} (the
      initial "-infinity" of max-register tree nodes).  It is chosen below
      every value algorithms store, so [max] over raw ints coincides with
      {!Memsim.Simval.max_val} over the encoded domain. *)

  val bot : int
  (** Sentinel for "no value written yet"; smaller than every stored
      value.  Implementations must never write [bot] as a real value. *)

  include MEMORY_GEN with type value := int
end
