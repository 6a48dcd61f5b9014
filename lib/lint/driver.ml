type report = {
  diagnostics : Diagnostic.t list;
  units_scanned : int;
  cost : Cost.report option;
}

let all_rules = [ "R1"; "R2"; "R3"; "R4"; "C1" ]

let rule_descriptions =
  [ ("R1",
     "atomics containment: raw Atomic/Obj/Domain only in the memory \
      layer and allowlisted submodules");
    ("R2",
     "progress witness: unbounded loops / CAS retries in the algorithm \
      libs must re-read shared memory");
    ("R3",
     "hot-path allocation: the zero-allocation natives stay \
      allocation-free, syntactically");
    ("R4", "interface hygiene: every lib module has an .mli");
    ("C1",
     "step-complexity certification: every budgeted operation's \
      certified shared-access bound stays within lib/lint/budgets.ml") ]

let in_scope (config : Config.t) source =
  List.exists
    (fun d ->
      String.equal source d
      || (String.length source > String.length d
          && String.sub source 0 (String.length d) = d
          && source.[String.length d] = '/'))
    config.scope_dirs

let run ?(config = Config.default) ?(budgets = Budgets.default)
    ?(rules = all_rules) ~build_dir ~root () =
  let units =
    Cmt_unit.scan ~build_dir
    |> List.filter (fun (u : Cmt_unit.t) ->
           in_scope config u.source
           (* a cmt can outlive its source (file deleted or renamed
              without a clean); lint the tree as it is now *)
           && Sys.file_exists (Filename.concat root u.source))
  in
  let want r = List.mem r rules in
  let diags = ref [] in
  List.iter
    (fun u ->
      if want "R1" then diags := Rules.r1 ~config u @ !diags;
      if want "R2" then diags := Rules.r2 ~config u @ !diags;
      if want "R3" then diags := Rules.r3 ~config u @ !diags)
    units;
  if want "R4" then diags := Rules.r4 ~config ~root () @ !diags;
  let cost =
    if want "C1" then begin
      let r = Cost.analyze ~budgets units in
      diags := r.Cost.diagnostics @ !diags;
      Some r
    end
    else None
  in
  { diagnostics = List.sort_uniq Diagnostic.compare !diags;
    units_scanned = List.length units;
    cost }

let errors r =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error)
    r.diagnostics

let has_errors r = errors r <> []

let to_json r =
  let errs = List.length (errors r) in
  Obs.Json_out.Obj
    [ ("schema", Obs.Json_out.Str "lint/v1");
      ("units_scanned", Obs.Json_out.Int r.units_scanned);
      ("violations", Obs.Json_out.Int errs);
      ("warnings",
       Obs.Json_out.Int (List.length r.diagnostics - errs));
      ("diagnostics",
       Obs.Json_out.List (List.map Diagnostic.to_json r.diagnostics)) ]

let to_human r =
  let b = Buffer.create 256 in
  List.iter
    (fun d ->
      Buffer.add_string b (Diagnostic.to_human d);
      Buffer.add_char b '\n')
    r.diagnostics;
  let errs = List.length (errors r) in
  Buffer.add_string b
    (Printf.sprintf
       "lint: %d unit(s) scanned, %d violation(s), %d warning(s)\n"
       r.units_scanned errs
       (List.length r.diagnostics - errs));
  Buffer.contents b
