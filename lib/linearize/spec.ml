(* Sequential specifications for the linearizability checker.

   Convention shared with the harness wrappers: mutator operations
   (write_max, increment, update) record result Bot; readers record their
   returned value. *)

open Memsim

module type SPEC = sig
  type state

  val initial : n:int -> state

  val apply :
    state -> name:string -> pid:int -> arg:Simval.t -> (state * Simval.t) option
  (** Apply one operation to the abstract state; [None] if the operation
      name is unknown to this object type. *)
end

module Max_register : SPEC with type state = int = struct
  type state = int

  let initial ~n = ignore n; 0

  let apply s ~name ~pid ~arg =
    ignore pid;
    match name with
    | "write_max" -> Some (max s (Simval.int_exn arg), Simval.Bot)
    | "read_max" -> Some (s, Simval.Int s)
    | _ -> None
end

module Counter : SPEC with type state = int = struct
  type state = int

  let initial ~n = ignore n; 0

  let apply s ~name ~pid ~arg =
    ignore pid;
    ignore arg;
    match name with
    | "increment" -> Some (s + 1, Simval.Bot)
    | "read" -> Some (s, Simval.Int s)
    | _ -> None
end

module Max_array : SPEC with type state = int * int = struct
  (* two max registers readable atomically together *)
  type state = int * int

  let initial ~n = ignore n; (0, 0)

  let apply (a, b) ~name ~pid ~arg =
    ignore pid;
    match name with
    | "update0" -> Some ((max a (Simval.int_exn arg), b), Simval.Bot)
    | "update1" -> Some ((a, max b (Simval.int_exn arg)), Simval.Bot)
    | "scan" -> Some ((a, b), Simval.Vec [| Simval.Int a; Simval.Int b |])
    | _ -> None
end

module Max_vector : SPEC with type state = int list = struct
  (* m max registers readable atomically together *)
  type state = int list

  let initial ~n = ignore n; []
  (* state starts empty and adopts the width of the first operation: the
     checker passes n = process count, not component count, so width is
     carried in the operations themselves *)

  let widen s m = if List.length s >= m then s else s @ List.init (m - List.length s) (fun _ -> 0)

  let apply s ~name ~pid ~arg =
    ignore pid;
    match name with
    | "vupdate" -> (
      match arg with
      | Simval.Vec [| Simval.Int component; Simval.Int v |] ->
        let s = widen s (component + 1) in
        Some
          (List.mapi (fun i x -> if i = component then max x v else x) s,
           Simval.Bot)
      | _ -> None)
    | "vscan" -> (
      (* result width recorded by the implementation; compare on the
         common prefix by widening to the recorded width *)
      match arg with
      | Simval.Int m ->
        let s = widen s m in
        Some (s, Simval.of_int_array (Array.of_list s))
      | _ -> None)
    | _ -> None
end

module Snapshot : SPEC with type state = int list = struct
  (* int list rather than array: structural equality and hashing of states
     must be value-based for the checker's memoization *)
  type state = int list

  let initial ~n = List.init n (fun _ -> 0)

  let apply s ~name ~pid ~arg =
    match name with
    | "update" ->
      let v = Simval.int_exn arg in
      Some (List.mapi (fun i x -> if i = pid then v else x) s, Simval.Bot)
    | "add" ->
      let d = Simval.int_exn arg in
      Some (List.mapi (fun i x -> if i = pid then x + d else x) s, Simval.Bot)
    | "scan" -> Some (s, Simval.of_int_array (Array.of_list s))
    | _ -> None
end
