(* bin/lint.exe — the concurrency-discipline linter and step-complexity
   certifier.

     dune build @default && dune exec bin/lint.exe
     lint [--build-dir _build/default] [--root .]
          [--rules R1,R2,R3,R4,C1] [--format human|json]
          [--cost] [--costs-md FILE] [--list-rules]

   Walks the dune-produced .cmt files and enforces:
     R1  atomics containment   (raw Atomic/Obj/Domain only in the
                                memory layer and allowlisted
                                submodules)
     R2  progress witness      (unbounded loops / CAS retries in the
                                algorithm libs must re-read shared
                                memory)
     R3  hot-path allocation   (the zero-allocation natives stay
                                allocation-free, syntactically)
     R4  interface hygiene     (every lib module has an .mli)
     C1  step certification    (every budgeted operation's certified
                                shared-access bound stays within
                                lib/lint/budgets.ml)

   [--cost] focuses the run on C1 and prints the per-operation
   certificate table (schema lint-cost/v1 under --format json);
   [--costs-md FILE] additionally writes the committed COSTS.md.

   Exit 0 when clean (warnings do not fail the run), 1 when there are
   error-severity violations, 2 on usage or missing-build errors. *)

open Cmdliner

let run build_dir root rules format cost_only costs_md list_rules =
  if list_rules then begin
    List.iter
      (fun (id, desc) -> Printf.printf "%-4s %s\n" id desc)
      Lint.Driver.rule_descriptions;
    exit 0
  end;
  if not (Sys.file_exists build_dir && Sys.is_directory build_dir) then begin
    Printf.eprintf
      "lint: build dir %s not found; run [dune build @default] first\n"
      build_dir;
    exit 2
  end;
  let unknown =
    List.filter (fun r -> not (List.mem r Lint.Driver.all_rules)) rules
  in
  if unknown <> [] then begin
    Printf.eprintf "lint: unknown rule(s) %s (try --list-rules)\n"
      (String.concat ", " unknown);
    exit 2
  end;
  let rules = if cost_only then [ "C1" ] else rules in
  let report = Lint.Driver.run ~rules ~build_dir ~root () in
  (match report.Lint.Driver.cost, costs_md with
   | Some c, Some path ->
     let oc = open_out path in
     output_string oc (Lint.Cost.to_costs_md c);
     close_out oc
   | None, Some _ ->
     Printf.eprintf "lint: --costs-md requires --cost or a C1 run\n";
     exit 2
   | _, None -> ());
  (match cost_only, report.Lint.Driver.cost with
   | true, Some c ->
     let units_scanned = report.Lint.Driver.units_scanned in
     (match format with
      | `Human -> print_string (Lint.Cost.to_human ~units_scanned c)
      | `Json ->
        print_string
          (Obs.Json_out.to_string (Lint.Cost.to_json ~units_scanned c));
        print_newline ())
   | _ ->
     (match format with
      | `Human -> print_string (Lint.Driver.to_human report)
      | `Json ->
        print_string (Obs.Json_out.to_string (Lint.Driver.to_json report));
        print_newline ()));
  if Lint.Driver.has_errors report then exit 1

let build_dir =
  Arg.(value
       & opt string "_build/default"
       & info [ "build-dir" ] ~docv:"DIR"
           ~doc:"Where dune put the .cmt files.")

let root =
  Arg.(value
       & opt string "."
       & info [ "root" ] ~docv:"DIR" ~doc:"Repository root to lint.")

let rules =
  Arg.(value
       & opt (list string) Lint.Driver.all_rules
       & info [ "rules" ] ~docv:"RULES"
           ~doc:"Comma-separated subset of R1,R2,R3,R4,C1.")

let format =
  Arg.(value
       & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human
       & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: human (compiler-style) or json.")

let cost_only =
  Arg.(value
       & flag
       & info [ "cost" ]
           ~doc:"Run only the C1 step-complexity certifier and print \
                 the per-operation certificate table (schema \
                 lint-cost/v1 under --format json).")

let costs_md =
  Arg.(value
       & opt (some string) None
       & info [ "costs-md" ] ~docv:"FILE"
           ~doc:"Also write the certificate table as markdown (the \
                 committed COSTS.md).")

let list_rules =
  Arg.(value
       & flag
       & info [ "list-rules" ] ~doc:"List the rules and exit.")

let cmd =
  let doc =
    "concurrency-discipline linter and step-complexity certifier for \
     the repo's .cmt files"
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(const run $ build_dir $ root $ rules $ format $ cost_only
          $ costs_md $ list_rules)

let () = exit (Cmd.eval cmd)
