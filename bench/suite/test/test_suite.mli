(* The benchmark suite's tests; the module exports nothing. *)
