(** Spans the traced run records around its calls into each layer.

    One span per trial (on the main thread), one per batch of calls into
    a layer, and one per linearizability check.  Each has a name, a
    start, an end, a parent (its trial, or its exploration) and a thread
    (the domain).  Spans go into a preallocated buffer per thread and are
    written out as Chrome [trace_event] JSON when the run ends; per-name
    time totals keep counting once a buffer is full. *)

type name =
  | Trial
  | Alg_a_read_max
  | Farray_read
  | Alg_a_write_max
  | Farray_increment
  | Adaptive_read_max
  | Adaptive_write_max
  | Dpor_explore
  | Linearize_check

val name_string : name -> string
(** ["<layer>.<fn>"], e.g. ["alg_a.write_max"]. *)

type t

val create : domains:int -> t

val main : t -> int
(** The main thread's id (trial spans): [domains]. *)

val record : t -> tid:int -> name -> parent:int -> int -> int -> unit
(** [record t ~tid name ~parent start stop], in monotonic ns.  Single
    writer per [tid]. *)

val open_span : t -> tid:int -> name -> parent:int -> int -> int
(** [open_span t ~tid name ~parent start] keeps a span whose end is not
    known yet and returns its id (the parent of the spans inside it), or
    [-1] once [tid]'s buffer is full. *)

val close_span : t -> tid:int -> name -> int -> start:int -> int -> unit
(** [close_span t ~tid name id ~start stop] ends a span from
    {!open_span}. *)

val total_ns : t -> name -> int
(** Time covered by every span of [name], over all threads. *)

val write_chrome : t -> string -> unit
