(* Native MEMORY over OCaml 5 atomics, for Domain-parallel execution.
   See the .mli for the physical-CAS/ABA argument. *)

type t = Memsim.Simval.t Atomic.t

let make = Atomic.make

let read = Atomic.get
let write = Atomic.set
let cas t ~expected ~desired = Atomic.compare_and_set t expected desired
