(** The classic wait-free single-writer snapshot of Afek, Attiya, Dolev,
    Gafni, Merritt and Shavit (JACM 1993), from reads and writes: updates
    embed a full scan; a scanner that sees some process move twice borrows
    that process's embedded scan.  O(N²) steps per operation — the
    wait-free baseline the restricted-use constructions improve on.  Its
    segments are {!Boxed.Raw} cells: build it inside
    {!Boxed.Raw.with_memory}. *)

type t

val create : n:int -> unit -> t
val update : t -> pid:int -> int -> unit
val add : t -> pid:int -> int -> unit
val scan : t -> int array
