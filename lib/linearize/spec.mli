(** Sequential specifications for the linearizability checker.

    Convention (shared with {!Harness.Annotate}): mutators record result
    {!Memsim.Simval.Bot}; readers record their returned value. *)

module type SPEC = sig
  type state

  val initial : n:int -> state

  val apply :
    state ->
    name:string ->
    pid:int ->
    arg:Memsim.Simval.t ->
    (state * Memsim.Simval.t) option
  (** Apply one operation; [None] if the operation name is unknown to this
      object type.  [state] must support structural equality and hashing
      (the checker memoizes on it). *)
end

module Max_register : SPEC with type state = int
(** Operations: ["write_max"] (arg = value), ["read_max"]. *)

module Counter : SPEC with type state = int
(** Operations: ["increment"], ["read"]. *)

module Max_array : SPEC with type state = int * int
(** Two max registers readable atomically together.
    Operations: ["update0"], ["update1"] (arg = value), ["scan"]
    (result = [Vec [|a; b|]]). *)

module Max_vector : SPEC with type state = int list
(** m max registers readable atomically.  Operations: ["vupdate"]
    (arg = [Vec [|component; value|]]), ["vscan"] (arg = the vector width
    m; result = the m maxima). *)

module Snapshot : SPEC with type state = int list
(** Operations: ["update"] (arg = value, segment = pid), ["add"] (arg =
    what is added to segment pid), ["scan"]. *)
