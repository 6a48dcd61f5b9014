(** The f-array counter is one source, lib/structures/farray_counter.ml,
    compiled as {!Unboxed.Farray_counter} and {!Boxed.Farray_counter}.
    This alias keeps the unboxed compile at the path bench/suite binds
    to. *)

module Unboxed = Unboxed.Farray_counter
