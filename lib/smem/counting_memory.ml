(* Step-counting wrapper around any MEMORY.  Each [wrap] call carries its
   own counters, so concurrent measurements do not interfere. *)

type counts = { mutable reads : int; mutable writes : int; mutable cas : int }

let total c = c.reads + c.writes + c.cas

let wrap (module M : Memory_intf.MEMORY) :
    (module Memory_intf.MEMORY) * counts =
  let counts = { reads = 0; writes = 0; cas = 0 } in
  let m : (module Memory_intf.MEMORY) =
    (module struct
      type t = M.t

      let make = M.make

      let read obj =
        counts.reads <- counts.reads + 1;
        M.read obj

      let write obj v =
        counts.writes <- counts.writes + 1;
        M.write obj v

      let cas obj ~expected ~desired =
        counts.cas <- counts.cas + 1;
        M.cas obj ~expected ~desired
    end)
  in
  (m, counts)

let reset c =
  c.reads <- 0;
  c.writes <- 0;
  c.cas <- 0
