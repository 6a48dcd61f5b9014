(** The boxed compile's cells: {!Memsim.Simval.t} values in base objects
    of any {!Smem.Memory_intf.MEMORY}.  This directory compiles the
    structures of [lib/structures] over these cells into the [boxed]
    library, so the source the unboxed compile runs natively also runs
    on the simulator (DPOR, fault plans, adversaries), under
    {!Smem.Counting_memory}, on {!Smem.Atomic_memory} and under the chaos
    wrappers.  Every [get]/[set]/[cas] is one operation of the cell's
    memory. *)

type value = Memsim.Simval.t

type t
(** A base object packed with its memory. *)

val with_memory : (module Smem.Memory_intf.MEMORY) -> (unit -> 'a) -> 'a
(** [with_memory m f] runs [f] with [m] as the memory {!make} and
    {!maker} allocate in: build a structure inside it
    ([with_memory m (Boxed.Algorithm_a.create ~n)]).  The binding is per
    domain and restored when [f] returns or raises; cells keep their
    memory for life. *)

val bot : value

val make : value -> t
(** Raises [Invalid_argument] outside {!with_memory}. *)

val maker : unit -> value -> t
(** An allocator bound to the current {!with_memory} memory, for cells
    built lazily after [create] returns. *)

val get : t -> value
val set : t -> value -> unit

val cas : t -> value -> value -> bool
(** [cas r expected desired]; pass as [expected] the value a {!get}
    returned: {!Smem.Atomic_memory}'s CAS is physical. *)

val of_int : int -> value
(** [Int i], and [Bot] for [min_int], the unboxed compile's [bot]. *)

val to_int : value -> int
(** Inverse of {!of_int}; raises [Invalid_argument] on a vector. *)
