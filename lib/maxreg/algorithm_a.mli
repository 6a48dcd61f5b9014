(** Algorithm A is one source, lib/structures/algorithm_a.ml, compiled
    as {!Unboxed.Algorithm_a} and {!Boxed.Algorithm_a}.  This alias keeps
    the unboxed compile at the path bench/suite binds to. *)

module Unboxed = Unboxed.Algorithm_a
