(** The textbook double-collect snapshot: obstruction-free only — a scan
    terminates when two consecutive collects agree, which concurrent
    updates can prevent forever.  Update O(1); uncontended scan O(N).
    Its segments are {!Boxed.Raw} cells: build it inside
    {!Boxed.Raw.with_memory}.

    In the paper's restricted-use regime (at most B updates in total) the
    retries are bounded by B, so scans terminate within the budget — the
    same bounded-retry reasoning as {!Maxarray.Max_array.From_registers};
    the liveness experiments (E9) drive it outside that regime. *)

type t

exception Starved
(** Raised by {!scan} after [max_collects] collects without agreement
    (keeps adversarial experiments finite). *)

val create : ?max_collects:int -> n:int -> unit -> t
val update : t -> pid:int -> int -> unit
val add : t -> pid:int -> int -> unit
val scan : t -> int array
