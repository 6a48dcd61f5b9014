(** The four concurrency-discipline rules, each a pure function from a
    loaded compilation unit (plus config) to diagnostics.

    - {b R1 atomics containment}: direct [Atomic]/[Obj]/[Domain]/[Mutex]
      (etc.) use is confined to the memory layer, the observability
      shards, the throughput harness, and the allowlisted submodules;
      algorithm code must go through [MEMORY]/[MEMORY_GEN] or [Raw].
    - {b R2 progress witness}: unbounded loops and CASing recursive
      retries in the algorithm libraries must re-read shared memory —
      the syntactic face of the paper's progress arguments.
    - {b R3 hot-path allocation}: functions named in
      {!Config.t.r3_targets} must not contain syntactically allocating
      constructs ([Body] mode) or must keep their while/for bodies
      clean ([Loops] mode).
    - {b R4 interface hygiene}: every [.ml] under the configured dirs
      has a sibling [.mli]. *)

val r1 : config:Config.t -> Cmt_unit.t -> Diagnostic.t list
val r2 : config:Config.t -> Cmt_unit.t -> Diagnostic.t list
val r3 : config:Config.t -> Cmt_unit.t -> Diagnostic.t list

val r4 : config:Config.t -> root:string -> unit -> Diagnostic.t list
(** Filesystem-only; [root] is the repo root containing the configured
    [r4_dirs]. *)

(** {2 Exposed for tests} *)

val components : Path.t -> string list
(** Resolved path, normalized: the [Stdlib] head (or [Stdlib__] prefix)
    is stripped so ["Atomic.get"] names the same thing however it was
    reached. *)
