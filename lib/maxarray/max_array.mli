(** 2-component max arrays — two max registers readable atomically
    together, the building block of the restricted-use snapshot of Aspnes
    et al. [3].  See the implementation header for why two plain max
    registers are not enough and why the polylog read/write-only
    construction of [2] is substituted by two correct-by-construction
    variants bracketing its complexity.  Each keeps its state in
    {!Boxed.Raw} cells: build one inside {!Boxed.Raw.with_memory}. *)

module type S = sig
  type t

  val create : n:int -> unit -> t
  (** Shared by [n] processes. *)

  val max_update0 : t -> pid:int -> int -> unit
  (** Raise component 0 to at least the given value. *)

  val max_update1 : t -> pid:int -> int -> unit
  (** Raise component 1 to at least the given value. *)

  val max_scan : t -> int * int
  (** Atomically read (max component 0, max component 1). *)
end

(** A closed instance for harnesses. *)
type instance = {
  update0 : pid:int -> int -> unit;
  update1 : pid:int -> int -> unit;
  scan : unit -> int * int;
}

val instantiate : (module S with type t = 'a) -> 'a -> instance

module From_registers : sig
  include S

  val create_bounded :
    ?max_collects:int -> bound0:int -> bound1:int -> unit -> t
  (** Explicit per-component value bounds. *)

  exception Starved
  (** A scan exceeded [max_collects] retries (only possible when component
      1 is updated more often than its restricted-use budget). *)
end
(** From two bounded max registers, reads and writes only: MaxScan
    double-collects the monotone component b around the a-read, so equal
    collects pin the joint state exactly.  Solo O(log bound) per
    operation; scans retry once per concurrent b-change (bounded by the
    restricted-use budget). *)

module From_snapshot : S
(** From the Afek et al. snapshot: reads and writes only, O(N²) steps per
    operation, worst-case wait-free. *)

module From_farray : S
(** From an f-array with componentwise max: read/write/CAS, MaxScan O(1),
    MaxUpdate O(log N) — the two-component view of {!Max_vector}. *)
