(* Simval cells in any MEMORY, for the boxed compile of lib/structures.
   A cell packs its memory with the base object, so one structure type
   serves every backend; the memory to allocate in is bound per domain
   by [with_memory] around construction. *)

open Memsim

type value = Simval.t

type t =
  | Cell : (module Smem.Memory_intf.MEMORY with type t = 'o) * 'o -> t

let memory : (module Smem.Memory_intf.MEMORY) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_memory m f =
  let outer = Domain.DLS.get memory in
  Domain.DLS.set memory (Some m);
  Fun.protect ~finally:(fun () -> Domain.DLS.set memory outer) f

let bot = Simval.Bot

let maker () =
  match Domain.DLS.get memory with
  | Some (module M) -> fun v -> Cell ((module M), M.make v)
  | None ->
    invalid_arg
      "Boxed.Raw.make: no memory bound; build the structure inside \
       Boxed.Raw.with_memory"

let make v = maker () v
let get (Cell ((module M), o)) = M.read o
let set (Cell ((module M), o)) v = M.write o v
let cas (Cell ((module M), o)) expected desired = M.cas o ~expected ~desired
let cas_same c v = cas c v v
let of_int i = if i = min_int then Simval.Bot else Simval.Int i

let to_int = function
  | Simval.Bot -> min_int
  | Simval.Int i -> i
  | Simval.Vec _ -> invalid_arg "Boxed.Raw.to_int: vector value"
