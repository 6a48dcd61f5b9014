(** Frontier — Theorem 1's read/update frontier walked by the tradeoff
    dial: the exact solo steps of [Dial_counter] at every dial point,
    beside the certified envelope the caller supplies, and the
    unboxed counter's throughput per dial point across read shares,
    timed by {!E7_native}'s loop. *)

val n : int
(** 64: the leaf count of every dial point. *)

type step_row = {
  dial : Treeprim.Dial.t;
  f : int;  (** block count at [n] *)
  read_steps : int;
  inc_steps : int;  (** the slowest increment over all [n] pids *)
}

val steps_rows : unit -> step_row list
(** One row per dial point, in {!Treeprim.Dial.all}'s order. *)

val run :
  envelope:(n:int -> Treeprim.Dial.t -> int * int) ->
  seconds:float ->
  trials:int ->
  unit ->
  string
(** Both tables.  [envelope ~n dial] is the certified (read, increment)
    step ceiling printed beside the measured steps. *)
