(** Lint configuration: which sources are in scope and the per-rule
    allowlists/targets.  {!default} encodes this repo's concurrency
    discipline; tests build their own values to point the rules at
    fixtures. *)

type allow =
  | Dir of string
      (** Source-path prefix ("lib/smem") or exact file
          ("lib/harness/throughput.ml"), repo-relative. *)
  | Module_path of string list
      (** Module-path prefix at submodule granularity:
          [["Chaos"; "Inject"]] allows the [Inject] submodule of
          compilation unit [Chaos] but not the rest of the file. *)

type r3_mode =
  | Body   (** the whole function body must not allocate *)
  | Loops  (** only while/for bodies within the function are checked *)

type r3_target = {
  qual : string list;
      (** qualified value name, unit-first: [["Throughput"; "run_alone"]],
          [["Adaptive"; "Alg_a"; "read_max"]] *)
  mode : r3_mode;
}

type t = {
  scope_dirs : string list;
      (** source dir prefixes linted by R1-R3 ("lib", "bin", "bench") *)
  r1_banned : string list;
      (** module roots whose direct use R1 confines ("Atomic", "Obj", ...) *)
  r1_allow : allow list;
  r2_dirs : string list;  (** dirs whose unbounded loops R2 audits *)
  r2_reads : string list;
      (** final identifier components counted as shared-memory reads *)
  r2_cas : string list;  (** ... and as CAS/RMW operations *)
  r3_targets : r3_target list;
  r4_dirs : string list;  (** dirs where every .ml needs an .mli *)
  r4_allow : string list;  (** exact repo-relative paths exempt from R4 *)
}

val default : t
(** The repo's discipline.  Widening an allowlist is a reviewed change
    here, not an edit at the violation site. *)
