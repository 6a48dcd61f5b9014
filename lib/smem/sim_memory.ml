(* Simulator-backed MEMORY: every operation is one shared-memory event of
   the session ([Session.read]/[write]/[cas]), scheduled by whatever
   scheduler is running (or applied directly outside a run). *)

open Memsim

let bind (session : Session.t) : (module Memory_intf.MEMORY) =
  (module struct
    type t = int

    let counter = ref 0

    let make init =
      incr counter;
      Session.alloc session ~name:(Printf.sprintf "o%d" !counter) init

    let read obj = Session.read session obj
    let write obj v = Session.write session obj v
    let cas obj ~expected ~desired = Session.cas session obj ~expected ~desired
  end)
