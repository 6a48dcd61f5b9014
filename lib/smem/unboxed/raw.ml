(* Bare [int Atomic.t] registers for the unboxed compile of
   lib/structures.  See the .mli for why every step is an [external]. *)

type value = int
type t = int Atomic.t

let bot = min_int
let make v = Smem.Unboxed_memory.Padded.make v
let maker () v = Smem.Unboxed_memory.make v

external get : t -> value = "%atomic_load"
external set : t -> value -> unit = "%atomic_exchange"
external cas : t -> value -> value -> bool = "%atomic_cas"
external of_int : int -> value = "%identity"
external to_int : value -> int = "%identity"
