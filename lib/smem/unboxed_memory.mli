(** The unboxed native backend: base objects are [int Atomic.t].

    Read/write/CAS move immediate ints only — zero allocation per
    operation, value CAS for free (physical equality on immediates is value
    equality, so the boxed backend's no-recurrence proviso is not even
    needed).  {!Memsim.Simval.Bot} is encoded as the sentinel [bot]
    ([min_int]); algorithms must store values strictly above it. *)

type t = int Atomic.t

val bot : int
(** Sentinel for "no value written yet"; smaller than every stored
    value, so [max] over raw ints coincides with {!Memsim.Simval.max_val}
    over the encoded domain.  Never write [bot] as a real value. *)

val make : ?name:string -> int -> t
(** An unpadded cell, for cells built lazily (the B1 register's
    switches); read, write and CAS it through [Atomic] (the unboxed
    [Raw]'s primitives).  Allocation is not a step; [name] is ignored. *)

val words_per_line : int
(** Assumed cache-line size in words (8 × 8 bytes = 64-byte lines). *)

val padded_words : int
(** Heap-block size (in fields) of a {!Padded} object:
    [2 * words_per_line - 1], enough to span a full line past the header at
    any alignment. *)

module Padded : sig
  (** Same backend, but each object's heap block is widened to
      {!padded_words} fields (the value stays in field 0, where the Atomic
      primitives operate), so adjacent base objects never share a cache
      line.  Use for arrays of objects written by different domains:
      f-array leaves, Algorithm A tree nodes, per-domain counters. *)

  type t = int Atomic.t

  val make : ?name:string -> int -> t
  val read : t -> int
  val write : t -> int -> unit
  val cas : t -> expected:int -> desired:int -> bool
end
