(* The set B of base objects of one implementation instance.

   Objects are allocated once, when the implementation builds its data
   structure (the paper's "initial configuration"); [reset] restores every
   object to its initial value so a store can be re-executed from scratch,
   which is how erase-and-replay (Lemma 2) is implemented. *)

type t = {
  mutable values : Simval.t array;
  mutable initial : Simval.t array;
  mutable names : string array;
  mutable len : int;
  mutable mutations : int;
      (* bumped by every change: [set], a successful [cas], [reset] and
         [alloc]; a caller that saw the same count twice knows the store
         did not change in between *)
}

let create () =
  { values = Array.make 16 Simval.Bot;
    initial = Array.make 16 Simval.Bot;
    names = Array.make 16 "";
    len = 0;
    mutations = 0 }

let grow t =
  let cap = Array.length t.values in
  let cap' = 2 * cap in
  let values = Array.make cap' Simval.Bot in
  let initial = Array.make cap' Simval.Bot in
  let names = Array.make cap' "" in
  Array.blit t.values 0 values 0 t.len;
  Array.blit t.initial 0 initial 0 t.len;
  Array.blit t.names 0 names 0 t.len;
  t.values <- values;
  t.initial <- initial;
  t.names <- names

let alloc t ~name init =
  if t.len = Array.length t.values then grow t;
  let id = t.len in
  t.values.(id) <- init;
  t.initial.(id) <- init;
  t.names.(id) <- name;
  t.len <- t.len + 1;
  t.mutations <- t.mutations + 1;
  id

let size t = t.len

let check t id =
  if id < 0 || id >= t.len then invalid_arg "Store: bad object id"

let get t id = check t id; t.values.(id)
let set t id v =
  check t id;
  t.values.(id) <- v;
  t.mutations <- t.mutations + 1

let name t id = check t id; t.names.(id)

let reset t =
  Array.blit t.initial 0 t.values 0 t.len;
  t.mutations <- t.mutations + 1

let mutations t = t.mutations

let cas t id ~expected ~desired =
  check t id;
  if Simval.equal t.values.(id) expected then begin
    t.values.(id) <- desired;
    t.mutations <- t.mutations + 1;
    true
  end
  else false

(* Atomically apply [prim] to object [id]; returns the response. *)
let apply t id (prim : Event.prim) : Event.response =
  match prim with
  | Read -> RVal (get t id)
  | Write v ->
    set t id v;
    RAck
  | Cas { expected; desired } ->
    if cas t id ~expected ~desired then RBool true else RBool false

(* Would applying [prim] right now change the object's value?  Used by the
   sigma-scheduler (Lemma 1) to classify enabled events as trivial or not. *)
let would_change t id (prim : Event.prim) =
  check t id;
  match prim with
  | Read -> false
  | Write v -> not (Simval.equal t.values.(id) v)
  | Cas { expected; desired } ->
    Simval.equal t.values.(id) expected
    && not (Simval.equal t.values.(id) desired)
