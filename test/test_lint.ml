(* The linter's own test suite.

   Two layers:
   - fixture tests: run the rules over test/lint_fixtures/ (built with
     warnings off; every file deliberately violates one rule) with a
     config that scopes to that directory, and compare against golden
     diagnostics;
   - the meta-test: the repo itself must be lint-clean under the
     default config, so a violation anywhere in lib/bin/bench fails
     [dune runtest], not just the CI lint job. *)

(* dune runs tests from _build/default/test; walk up to the directory
   holding dune-project to find both the repo root and the build dir. *)
let repo_root =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then failwith "test_lint: repo root not found"
      else up parent
  in
  up (Sys.getcwd ())

let fixture_dir = "test/lint_fixtures"

let fixture_build_dir =
  Filename.concat repo_root ("_build/default/" ^ fixture_dir)

let fixture_config =
  { Lint.Config.default with
    scope_dirs = [ fixture_dir ];
    r1_allow =
      [ Lint.Config.Module_path [ "R1_split"; "Unboxed" ];
        (* whole-file allow, the shape the default config uses for
           lib/smem and lib/harness/throughput.ml *)
        Lint.Config.Dir (fixture_dir ^ "/r1_dir_ok.ml");
        (* the C1 fixtures violate cost budgets, not containment *)
        Lint.Config.Dir (fixture_dir ^ "/c1_over.ml");
        Lint.Config.Dir (fixture_dir ^ "/c1_unbounded.ml");
        Lint.Config.Dir (fixture_dir ^ "/c1_chain.ml") ];
    r2_dirs = [ fixture_dir ];
    r3_targets =
      [ { qual = [ "R3_bad"; "hot" ]; mode = Lint.Config.Body };
        { qual = [ "R3_bad"; "loops" ]; mode = Lint.Config.Loops } ];
    r4_dirs = [ fixture_dir ];
    r4_allow = [] }

(* The fixture budget table: each row names an op in a c1_* fixture.
   [within]'s budget is deliberately a class too loose, so the run also
   exercises the warn-severity "improvable" diagnostic. *)
let fixture_budgets =
  { Lint.Budgets.rows =
      [ { op = [ "C1_over"; "over" ];
          budget = Lint.Summary.Const 2;
          reason = "fixture: two loads allowed" };
        { op = [ "C1_over"; "within" ];
          budget = Lint.Summary.Log;
          reason = "fixture: deliberately loose" };
        { op = [ "C1_unbounded"; "chase" ];
          budget = Lint.Summary.Log;
          reason = "fixture: claimed log bound, unannotated recursion" };
        { op = [ "C1_unbounded"; "blind_walk" ];
          budget = Lint.Summary.Log;
          reason = "fixture: annotated recursion without a witness" };
        { op = [ "C1_chain"; "deep_read" ];
          budget = Lint.Summary.Const 4;
          reason = "fixture: interprocedural chain fits" };
        { op = [ "C1_chain"; "deep_wide" ];
          budget = Lint.Summary.Const 3;
          reason = "fixture: interprocedural chain exceeds" } ];
    recursion = [ ([ "C1_unbounded"; "blind_walk" ], Lint.Summary.Log) ];
    const_bounds = [];
    memory_params = [];
    instrumentation_roots = [] }

let run_fixtures ?rules () =
  Lint.Driver.run ~config:fixture_config ~budgets:fixture_budgets ?rules
    ~build_dir:fixture_build_dir ~root:repo_root ()

let by_rule rule (r : Lint.Driver.report) =
  List.filter (fun d -> d.Lint.Diagnostic.rule = rule) r.diagnostics

let in_file file ds =
  List.filter (fun d -> d.Lint.Diagnostic.file = file) ds

(* ------------------------------------------------------------------ *)

let test_fixtures_built () =
  let r = run_fixtures () in
  Alcotest.(check bool)
    "fixture cmts found (build @default before runtest)" true
    (r.units_scanned >= 4)

let test_r1_flags_raw_primitives () =
  let ds = by_rule "R1" (run_fixtures ~rules:[ "R1" ] ()) in
  let bad = in_file (fixture_dir ^ "/r1_bad.ml") ds in
  (* Atomic.make, Atomic.incr, the Atomic.t type, the module alias,
     Domain.self *)
  Alcotest.(check int) "r1_bad violation count" 5 (List.length bad);
  let lines = List.map (fun d -> d.Lint.Diagnostic.line) bad in
  Alcotest.(check (list int)) "r1_bad violation lines" [ 4; 6; 8; 10; 12 ]
    lines

let test_r1_submodule_allowlist () =
  let ds = by_rule "R1" (run_fixtures ~rules:[ "R1" ] ()) in
  let split = in_file (fixture_dir ^ "/r1_split.ml") ds in
  (* everything inside Unboxed is allowlisted; only [stray] trips *)
  Alcotest.(check int) "r1_split violation count" 1 (List.length split);
  Alcotest.(check int) "r1_split violation line" 11
    (List.hd split).Lint.Diagnostic.line

let test_r1_dir_allowlist () =
  let ds = by_rule "R1" (run_fixtures ~rules:[ "R1" ] ()) in
  let ok = in_file (fixture_dir ^ "/r1_dir_ok.ml") ds in
  (* the Dir entry short-circuits the whole file: toplevel Atomic and
     the nested Domain.self alike *)
  Alcotest.(check int) "r1_dir_ok violation count" 0 (List.length ok)

let test_r2_spin_and_stale_retry () =
  let ds = by_rule "R2" (run_fixtures ~rules:[ "R2" ] ()) in
  let bad = in_file (fixture_dir ^ "/r2_bad.ml") ds in
  Alcotest.(check int) "r2_bad violation count" 2 (List.length bad);
  let lines = List.map (fun d -> d.Lint.Diagnostic.line) bad in
  (* [spin]'s while-true and [retry]'s binding; [ok_spin] (line 19+)
     re-reads and stays silent *)
  Alcotest.(check (list int)) "r2_bad violation lines" [ 11; 15 ] lines

let test_r3_hot_path_allocations () =
  let ds = by_rule "R3" (run_fixtures ~rules:[ "R3" ] ()) in
  let bad = in_file (fixture_dir ^ "/r3_bad.ml") ds in
  let lines =
    List.sort_uniq Int.compare
      (List.map (fun d -> d.Lint.Diagnostic.line) bad)
  in
  (* [hot]'s Some (line 10) and the list literal in [loops]'s while
     body (line 20); [unchecked] (line 12) and the epilogue list
     (line 22) stay silent *)
  Alcotest.(check (list int)) "r3_bad violation lines" [ 10; 20 ] lines

(* A target naming no binding (a renamed or deleted function) is an
   error of its own, against the config; the real targets' findings are
   unchanged. *)
let test_r3_unmatched_target () =
  let config =
    { fixture_config with
      r3_targets =
        fixture_config.r3_targets
        @ [ { qual = [ "R3_bad"; "no_such_fn" ]; mode = Lint.Config.Body } ] }
  in
  let ds =
    by_rule "R3"
      (Lint.Driver.run ~config ~budgets:fixture_budgets ~rules:[ "R3" ]
         ~build_dir:fixture_build_dir ~root:repo_root ())
  in
  Alcotest.(check (list string))
    "one error for the bogus target, at the config"
    [ "lib/lint/config.ml:1:1: [R3] zero-allocation target \
       R3_bad.no_such_fn was not found in any scanned unit: rename or drop \
       it in Lint.Config.r3_targets" ]
    (List.filter_map
       (fun (d : Lint.Diagnostic.t) ->
         if d.file = fixture_dir ^ "/r3_bad.ml" then None
         else Some (Lint.Diagnostic.to_human d))
       ds);
  Alcotest.(check (list int)) "r3_bad findings unchanged" [ 10; 20 ]
    (List.sort_uniq Int.compare
       (List.map
          (fun (d : Lint.Diagnostic.t) -> d.line)
          (in_file (fixture_dir ^ "/r3_bad.ml") ds)))

let test_r4_missing_interfaces () =
  let ds = by_rule "R4" (run_fixtures ~rules:[ "R4" ] ()) in
  let files = List.map (fun d -> d.Lint.Diagnostic.file) ds in
  Alcotest.(check (list string)) "r4 flags every fixture module"
    [ fixture_dir ^ "/c1_chain.ml";
      fixture_dir ^ "/c1_over.ml";
      fixture_dir ^ "/c1_unbounded.ml";
      fixture_dir ^ "/r1_bad.ml";
      fixture_dir ^ "/r1_dir_ok.ml";
      fixture_dir ^ "/r1_split.ml";
      fixture_dir ^ "/r2_bad.ml";
      fixture_dir ^ "/r3_bad.ml" ]
    files

(* ------------------------------------------------------------------ *)
(* C1: the step-complexity certifier over the c1_* fixtures            *)

let test_c1_violations () =
  let r = run_fixtures ~rules:[ "C1" ] () in
  let ds = by_rule "C1" r in
  let errors =
    List.filter
      (fun d -> d.Lint.Diagnostic.severity = Lint.Diagnostic.Error)
      ds
  in
  let places =
    List.map
      (fun d -> (d.Lint.Diagnostic.file, d.Lint.Diagnostic.line))
      errors
  in
  (* deep_wide's 4 loads over its budget of 3; over's 3 loads over its
     budget of 2; chase's unannotated recursion; blind_walk's refused
     (witness-free) annotation *)
  Alcotest.(check (list (pair string int)))
    "c1 error sites"
    [ (fixture_dir ^ "/c1_chain.ml", 11);
      (fixture_dir ^ "/c1_over.ml", 8);
      (fixture_dir ^ "/c1_unbounded.ml", 7);
      (fixture_dir ^ "/c1_unbounded.ml", 11) ]
    places

let test_c1_warn_does_not_fail () =
  let r = run_fixtures ~rules:[ "C1" ] () in
  let warns =
    List.filter
      (fun d -> d.Lint.Diagnostic.severity = Lint.Diagnostic.Warn)
      (by_rule "C1" r)
  in
  (* [within] is Const 2 under a Log budget: improvable, warn-only *)
  Alcotest.(check (list (pair string int)))
    "c1 warn sites"
    [ (fixture_dir ^ "/c1_over.ml", 10) ]
    (List.map
       (fun d -> (d.Lint.Diagnostic.file, d.Lint.Diagnostic.line))
       warns);
  let errors_only =
    List.filter
      (fun (d : Lint.Diagnostic.t) -> d.severity = Lint.Diagnostic.Error)
      r.diagnostics
  in
  Alcotest.(check bool) "warns excluded from errors" true
    (List.length errors_only < List.length r.diagnostics)

let test_c1_interprocedural_chain () =
  let r = run_fixtures ~rules:[ "C1" ] () in
  match r.cost with
  | None -> Alcotest.fail "C1 run produced no cost report"
  | Some c ->
    let find op =
      List.find_opt (fun (o : Lint.Cost.op_report) -> o.op = op) c.ops
    in
    (match find [ "C1_chain"; "deep_read" ] with
     | Some { status = Lint.Cost.Certified; summary = Some s; _ } ->
       (* exactly the two loads, counted through two helper frames *)
       Alcotest.(check string) "deep_read total" "<= 2"
         (Lint.Summary.bound_to_string (Lint.Summary.total s))
     | _ -> Alcotest.fail "deep_read not certified");
    (match find [ "C1_chain"; "deep_wide" ] with
     | Some { status = Lint.Cost.Violation; summary = Some s; _ } ->
       Alcotest.(check string) "deep_wide total" "<= 4"
         (Lint.Summary.bound_to_string (Lint.Summary.total s))
     | _ -> Alcotest.fail "deep_wide not a violation")

let test_c1_cost_json_shape () =
  let r = run_fixtures ~rules:[ "C1" ] () in
  match r.cost with
  | None -> Alcotest.fail "C1 run produced no cost report"
  | Some c -> (
    let j = Lint.Cost.to_json ~units_scanned:r.units_scanned c in
    match Obs.Json_out.member "schema" j with
    | Some (Obs.Json_out.Str "lint-cost/v1") -> (
      match Obs.Json_out.member "ops" j with
      | Some (Obs.Json_out.List ops) ->
        Alcotest.(check int) "one entry per budget row" 6
          (List.length ops)
      | _ -> Alcotest.fail "ops array missing")
    | _ -> Alcotest.fail "schema tag missing")

(* Golden rendering: the full human report for the fixture tree, pinned
   in test/lint_fixtures/expected.golden.  Catches drift in message
   wording, ordering, dedup, and the file:line:col format that CI logs
   and editors rely on.  Regenerate with LINT_GOLDEN_UPDATE=1 after an
   intentional change, and review the diff like any other code. *)
let golden_path =
  Filename.concat repo_root (fixture_dir ^ "/expected.golden")

let test_golden_human_output () =
  let actual = Lint.Driver.to_human (run_fixtures ()) in
  if Sys.getenv_opt "LINT_GOLDEN_UPDATE" = Some "1" then begin
    let oc = open_out golden_path in
    output_string oc actual;
    close_out oc
  end;
  let ic = open_in_bin golden_path in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string)
    "golden diagnostics (LINT_GOLDEN_UPDATE=1 to regenerate)" expected
    actual

let test_json_shape () =
  let j = Lint.Driver.to_json (run_fixtures ()) in
  match Obs.Json_out.member "schema" j with
  | Some (Obs.Json_out.Str "lint/v1") -> (
    match Obs.Json_out.member "diagnostics" j with
    | Some (Obs.Json_out.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "diagnostics array missing/empty")
  | _ -> Alcotest.fail "schema tag missing"

(* ------------------------------------------------------------------ *)

let test_repo_is_lint_clean () =
  let r =
    Lint.Driver.run
      ~build_dir:(Filename.concat repo_root "_build/default")
      ~root:repo_root ()
  in
  Alcotest.(check (list string)) "repo lints clean" []
    (List.map Lint.Diagnostic.to_human r.diagnostics)

(* Forcing a lazily built node builds the initial configuration, not a
   step: C1 must not price Lazy_cell's own atomics as the B1 register's
   reads and CASes.  B1 is built from reads and writes only, and a
   simulated run issues no CAS, so its certificate holds none. *)
let test_b1_certificate_has_no_cas () =
  let r =
    Lint.Driver.run ~rules:[ "C1" ]
      ~build_dir:(Filename.concat repo_root "_build/default")
      ~root:repo_root ()
  in
  let ops =
    match r.cost with
    | Some c -> c.ops
    | None -> Alcotest.fail "C1 run produced no cost report"
  in
  List.iter
    (fun op ->
      let name = String.concat "." op in
      match List.find_opt (fun (o : Lint.Cost.op_report) -> o.op = op) ops with
      | Some { status = Lint.Cost.Certified; summary = Some s; _ } ->
        Alcotest.(check string) (name ^ " cas") "<= 0"
          (Lint.Summary.bound_to_string s.Lint.Summary.cas);
        Alcotest.(check string) (name ^ " total") "O(log n)"
          (Lint.Summary.bound_to_string (Lint.Summary.total s))
      | _ -> Alcotest.failf "%s not certified" name)
    [ [ "B1_maxreg"; "read_max" ]; [ "B1_maxreg"; "write_max" ] ]

(* The primitive guard.  Every shared-memory step of the unboxed
   compile goes through lib/smem/unboxed/raw.mli; under dune's dev
   profile (-opaque) a [val] there would turn each step into a call
   through a closure that neither the zero-alloc guards nor R3 can see,
   while an [external] compiles at the call site as [Stdlib.Atomic]'s
   does: an inline load, or a direct noalloc call into the runtime
   ([caml_atomic_cas]) or into a [[@@noalloc]] C stub ([cas_same]).
   Read the compiled interface and require every function in it to be a
   primitive, except the allocators (allocation is not a step). *)
let raw_cmi =
  Filename.concat repo_root
    "_build/default/lib/smem/unboxed/.unboxed.objs/byte/unboxed__Raw.cmi"

let test_raw_steps_are_primitives () =
  let cmi = Cmi_format.read_cmi raw_cmi in
  let functions =
    List.filter_map
      (function
        | Types.Sig_value (id, vd, _) -> (
          match Types.get_desc vd.Types.val_type with
          | Types.Tarrow _ ->
            let prim =
              match vd.Types.val_kind with
              | Types.Val_prim _ -> true
              | _ -> false
            in
            Some (Ident.name id, prim)
          | _ -> None)
        | _ -> None)
      cmi.Cmi_format.cmi_sign
  in
  let allocators = [ "make"; "maker" ] in
  Alcotest.(check (list string)) "non-primitive functions in Raw" []
    (List.filter_map
       (fun (name, prim) ->
         if prim || List.mem name allocators then None else Some name)
       functions);
  List.iter
    (fun step ->
      Alcotest.(check (option bool)) (step ^ " is a primitive") (Some true)
        (List.assoc_opt step functions))
    [ "get"; "set"; "cas"; "cas_same"; "of_int"; "to_int" ]

let () =
  Alcotest.run "lint"
    [ ("fixtures",
       [ Alcotest.test_case "cmts built" `Quick test_fixtures_built;
         Alcotest.test_case "R1 raw primitives" `Quick
           test_r1_flags_raw_primitives;
         Alcotest.test_case "R1 submodule allowlist" `Quick
           test_r1_submodule_allowlist;
         Alcotest.test_case "R1 whole-file Dir allowlist" `Quick
           test_r1_dir_allowlist;
         Alcotest.test_case "R2 spin + stale retry" `Quick
           test_r2_spin_and_stale_retry;
         Alcotest.test_case "R3 hot-path allocation" `Quick
           test_r3_hot_path_allocations;
         Alcotest.test_case "R3 unmatched target" `Quick
           test_r3_unmatched_target;
         Alcotest.test_case "R4 missing interfaces" `Quick
           test_r4_missing_interfaces;
         Alcotest.test_case "C1 budget violations" `Quick
           test_c1_violations;
         Alcotest.test_case "C1 warn severity" `Quick
           test_c1_warn_does_not_fail;
         Alcotest.test_case "C1 interprocedural chain" `Quick
           test_c1_interprocedural_chain;
         Alcotest.test_case "C1 cost json shape" `Quick
           test_c1_cost_json_shape;
         Alcotest.test_case "golden human output" `Quick
           test_golden_human_output;
         Alcotest.test_case "json shape" `Quick test_json_shape ]);
      ("meta", [ Alcotest.test_case "repo lint-clean" `Quick
                   test_repo_is_lint_clean;
                 Alcotest.test_case "unboxed Raw steps are primitives" `Quick
                   test_raw_steps_are_primitives;
                 Alcotest.test_case "B1 certificate has no CAS" `Quick
                   test_b1_certificate_has_no_cas ]) ]
