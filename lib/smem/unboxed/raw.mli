(** The unboxed compile's cells: bare [int Atomic.t] registers.  The
    structures of [lib/structures] are written once against [Raw];
    this directory compiles them over these cells into the [unboxed]
    library, [lib/smem/boxed] over Simval cells in any MEMORY.

    Every step is an [external]: dune's dev profile compiles with
    [-opaque], under which a [val] of another module is an out-of-line
    call, while a primitive expands at the call site into exactly the
    code [Stdlib.Atomic] compiles to.  test_lint fails if a function
    here other than the allocators is not a primitive. *)

type value = int

type t

val bot : value
(** [min_int]: the initial "-infinity" of tree nodes, below every stored
    value. *)

val make : value -> t
(** A register on its own cache lines ({!Smem.Unboxed_memory.Padded});
    allocation is not a step. *)

val maker : unit -> value -> t
(** An allocator of unpadded registers, for cells a structure builds
    lazily after [create] (the B1 register's switches). *)

external get : t -> value = "%atomic_load"

external set : t -> value -> unit = "%atomic_exchange"
(** [Atomic.set]'s exchange; the old value it returns is an immediate
    int, dropped as [unit]. *)

external cas : t -> value -> value -> bool = "%atomic_cas"
(** [cas r expected desired]; pass as [expected] the value a [get]
    returned, as the boxed compile's physical CAS requires. *)

external of_int : int -> value = "%identity"
(** [of_int min_int = bot]. *)

external to_int : value -> int = "%identity"
