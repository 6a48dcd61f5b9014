(** Shared-memory events.

    An event records one atomic application of a primitive to a base object:
    the primitive and its operands, the response, and the value of the object
    before and after.  Events are the unit of step complexity in the paper's
    model. *)

type prim =
  | Read
  | Write of Simval.t
  | Cas of { expected : Simval.t; desired : Simval.t }

type response =
  | RVal of Simval.t
  | RAck
  | RBool of bool

type t = {
  seq : int;           (** position in the execution, 0-based *)
  pid : int;
  obj : int;
  obj_name : string;
  prim : prim;
  response : response;
  before : Simval.t;
  after : Simval.t;
}

val changed_value : t -> bool
(** [true] iff the event changed the value of the object it accessed
    (the negation of "trivial" in Definition 1, first clause). *)

val prim_writes : prim -> bool
(** [true] iff the primitive may change the object's value (write or CAS);
    the static write-like test used by {!Dpor}'s dependence relation. *)

val is_write : t -> bool

val pp_prim : prim Fmt.t
val pp_response : response Fmt.t
val pp : t Fmt.t
