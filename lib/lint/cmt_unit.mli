(** Loading dune-produced [.cmt] files into lintable units.  The typed
    tree (not the parsetree) is what makes the rules reliable: paths are
    resolved, so [Atomic.get] and [Stdlib.Atomic.get] and an
    [open Atomic] all surface as the same resolved path. *)

type t = {
  source : string;
      (** repo-relative path of the source the code was written in
          (e.g. "lib/structures/algorithm_a.ml"), following the line
          directive of a dune [copy_files#] copy *)
  modname : string;
      (** display module name: "Maxreg__Cas_maxreg" -> "Cas_maxreg" *)
  structure : Typedtree.structure;
}

val display_name : string -> string
(** Strip a dune wrapping prefix: ["Lib__Mod"] -> ["Mod"]. *)

val load : string -> t option
(** Read one [.cmt]; [None] for interfaces, partial cmts, or unreadable
    files (version skew) — the driver skips those silently. *)

val scan : build_dir:string -> t list
(** All implementation units under [build_dir] (recursive), sorted by
    source path.  A source compiled into several libraries (the
    structures of lib/structures, one compile per memory backend) gives
    one unit per compile; several cmts of one compile (an alias module
    built for multiple stanzas) give one. *)
