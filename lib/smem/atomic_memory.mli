(** Native base objects over OCaml 5 [Atomic], for Domain-parallel runs.

    CAS uses physical equality ([Atomic.compare_and_set]) while the model's
    CAS compares values.  The two coincide for every algorithm in this
    repository because they only ever CAS with an [expected] value obtained
    from a prior read of the same object: Simval boxes are immutable, and
    node values are monotone (maxima, sums, sequence-stamped segments) so a
    structurally-equal-but-physically-distinct box can never reappear at
    the same object — the ABA case physical CAS would misjudge cannot
    arise.

    For int-valued hot paths prefer {!Unboxed_memory}, which skips the box
    entirely. *)

include Memory_intf.MEMORY
