(* The benchmark's command-line entry point; it exports nothing. *)
