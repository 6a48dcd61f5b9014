(* Shared-memory events: the primitive applied, its operands, its response,
   and the object value before/after.  One event = one "step" in the paper's
   complexity measure. *)

type prim =
  | Read
  | Write of Simval.t
  | Cas of { expected : Simval.t; desired : Simval.t }

type response =
  | RVal of Simval.t   (* response to Read *)
  | RAck               (* response to Write *)
  | RBool of bool      (* response to Cas *)

type t = {
  seq : int;           (* position in the execution, 0-based *)
  pid : int;
  obj : int;
  obj_name : string;
  prim : prim;
  response : response;
  before : Simval.t;   (* object value just before the event *)
  after : Simval.t;    (* object value just after the event *)
}

(* An event is "trivial" (Def. 1, first clause) iff it leaves the object
   value unchanged.  Reads, failed CAS, and writes of the current value are
   all trivial. *)
let changed_value e = not (Simval.equal e.before e.after)

(* A primitive is write-like iff it may change the object's value.  Used as
   the static dependence test of the DPOR engine: whether a CAS succeeds is
   only known after it is applied, so CAS is conservatively write-like. *)
let prim_writes = function Read -> false | Write _ | Cas _ -> true

let is_write e = match e.prim with Write _ -> true | Read | Cas _ -> false

let pp_prim ppf = function
  | Read -> Fmt.string ppf "read"
  | Write v -> Fmt.pf ppf "write(%a)" Simval.pp v
  | Cas { expected; desired } ->
    Fmt.pf ppf "cas(%a→%a)" Simval.pp expected Simval.pp desired

let pp_response ppf = function
  | RVal v -> Simval.pp ppf v
  | RAck -> Fmt.string ppf "ack"
  | RBool b -> Fmt.bool ppf b

let pp ppf e =
  Fmt.pf ppf "#%d p%d %s.%a = %a" e.seq e.pid e.obj_name pp_prim e.prim
    pp_response e.response
