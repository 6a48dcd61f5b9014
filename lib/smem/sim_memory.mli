(** Simulator-backed base objects. *)

val bind : Memsim.Session.t -> (module Memory_intf.MEMORY)
(** A MEMORY whose objects live in the given session's store.  Operations
    performed while a scheduler run is in progress become schedulable
    events; operations outside a run are applied directly (and counted by
    {!Memsim.Session.direct_steps}).  Each is one {!Memsim.Session.read},
    {!Memsim.Session.write} or {!Memsim.Session.cas}. *)
