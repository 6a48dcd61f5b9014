module J = Subjects.Json

let unit_of name defs =
  match List.find_opt (fun (d : Metric.def) -> d.name = name) defs with
  | Some d -> d.unit_
  | None -> "?"

(* The reported value of an end-to-end metric.  Set-up time: the median
   of its timings.  The others: the midpoint of the 5th and 95th
   percentiles of the run's windows.  On a shared host, windows fall
   into quiet and busy spells of a few seconds each, at two levels, and
   the share of quiet time changes from run to run and hour to hour.
   The median, or any one percentile, jumps from one level to the other
   as that share crosses it; the midpoint of the two tails stays between
   the levels whenever a run holds both kinds of spell.  Over eight sets
   of ten runs on a 2-vCPU shared host (two per workload, every window
   kept), the largest spread of the runs' values was 18% with the fast
   decile, 31% with the median and 11% with this midpoint. *)
let value name samples =
  if name = "setup_s" then Stats.median samples
  else (Stats.quantile samples 0.05 +. Stats.quantile samples 0.95) /. 2.

let failed_pct (r : Runner.result) =
  if r.checks = 0 then 0. else 100. *. float_of_int r.failures /. float_of_int r.checks

let print (r : Runner.result) =
  Printf.printf "bench-suite: %s seed=%d seconds=%g trace=%d\n" r.workload r.seed
    r.seconds (Bool.to_int r.traced);
  List.iter
    (fun (name, samples) ->
      let s = Stats.summarize samples in
      Printf.printf "  %-34s %14.6g %-6s (reported; median %.6g, q1 %.6g, q3 %.6g, n=%d)\n"
        name (value name samples) (unit_of name Metric.end_to_end) s.median s.q1 s.q3 s.n)
    r.end_to_end;
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-34s %14.6g %s\n" name v (unit_of name Metric.per_layer))
    r.per_layer;
  Printf.printf "  checks: %d checked, %d failed (failed_pct %.4f %%)\n" r.checks
    r.failures (failed_pct r);
  Printf.printf "  stationarity: ops_per_s trend %.2f %% over the run, iqr %.2f %%%s\n"
    r.trend_pct r.iqr_pct
    (if Runner.stationary r then "" else "  ** NOT STATIONARY: trend exceeds iqr **");
  Printf.printf "  host: ref loop %s ms%s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") r.ref_loop_ms)))
    (if Runner.host_drift r then "  ** host_drift: max/min > 1.10 **" else "")

(* Printed by hand: it must fit on one line, and the JSON printer
   indents. *)
let result_line (r : Runner.result) =
  let metric (name, unit_, v) =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" (J.escape name)
      (J.float_repr v) (J.escape unit_)
  in
  let metrics =
    if r.traced then
      List.map (fun (n, v) -> (n, unit_of n Metric.per_layer, v)) r.per_layer
    else
      List.map
        (fun (n, samples) -> (n, unit_of n Metric.end_to_end, value n samples))
        r.end_to_end
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failures = 0) (max 1 r.checks) r.failures
    (String.concat ", " (List.map metric metrics))

(* {1 Manifest} *)

let command args =
  try
    let ic = Unix.open_process_args_in args.(0) args in
    let out = In_channel.input_all ic in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Some (String.trim out)
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let manifest (r : Runner.result) ~argv ~wall_s =
  (* only a checkout's own repository: git would otherwise climb to any
     enclosing one *)
  let git args = if Sys.file_exists ".git" then command (Array.append [| "git" |] args) else None in
  let opt = function Some s -> J.Str s | None -> J.Null in
  J.Obj
    [ ("schema", J.Str "bench-suite/v1");
      ("git_rev", opt (git [| "rev-parse"; "HEAD" |]));
      ("git_dirty",
       match git [| "status"; "--porcelain" |] with
       | Some s -> J.Bool (s <> "")
       | None -> J.Null);
      ("ocaml", J.Str Sys.ocaml_version);
      ("flambda", J.Bool Build_info.flambda);
      ("nproc",
       match Option.bind (command [| "nproc" |]) int_of_string_opt with
       | Some n -> J.Int n
       | None -> J.Null);
      ("recommended_domains", J.Int (Subjects.recommended_domains ()));
      ("seed", J.Int r.seed);
      ("config",
       J.Obj
         [ ("argv", J.List (List.map (fun a -> J.Str a) (Array.to_list argv)));
           ("workload", J.Str r.workload);
           ("seconds", J.Float r.seconds);
           ("trace", J.Bool r.traced) ]);
      ("wall_s", J.Float wall_s);
      ("host_ref_loop_ms",
       J.List (Array.to_list (Array.map (fun x -> J.Float x) r.ref_loop_ms)));
      ("host_drift", J.Bool (Runner.host_drift r)) ]

let run_json (r : Runner.result) ~argv ~wall_s =
  J.Obj
    [ ("manifest", manifest r ~argv ~wall_s);
      ("workload", J.Str r.workload);
      ("seed", J.Int r.seed);
      ("traced", J.Bool r.traced);
      ("checks", J.Int r.checks);
      ("failed", J.Int r.failures);
      ("failed_pct", J.Float (failed_pct r));
      ("stationary", J.Bool (Runner.stationary r));
      ("trend_pct", J.Float r.trend_pct);
      ("iqr_pct", J.Float r.iqr_pct);
      ("end_to_end",
       J.Obj
         (List.map
            (fun (n, samples) ->
              let s = Stats.summarize samples in
              ( n,
                J.Obj
                  [ ("value", J.Float (value n samples));
                    ("unit", J.Str (unit_of n Metric.end_to_end));
                    ("median", J.Float s.median);
                    ("q1", J.Float s.q1);
                    ("q3", J.Float s.q3);
                    ("n", J.Int s.n);
                    ("samples",
                     J.List (Array.to_list (Array.map (fun x -> J.Float x) samples))) ] ))
            r.end_to_end));
      ("per_layer",
       J.Obj
         (List.map
            (fun (n, v) ->
              (n, J.Obj [ ("value", J.Float v); ("unit", J.Str (unit_of n Metric.per_layer)) ]))
            r.per_layer)) ]

let load_runs path =
  let j = J.parse (In_channel.with_open_bin path In_channel.input_all) in
  if J.member "schema" j <> Some (J.Str "bench-suite/v1") then
    failwith (path ^ ": not a bench-suite/v1 results file");
  Option.value ~default:[] (Option.bind (J.member "runs" j) J.as_list)

let append path r ~argv ~wall_s =
  let runs = if Sys.file_exists path then load_runs path else [] in
  J.to_file path
    (J.Obj
       [ ("schema", J.Str "bench-suite/v1");
         ("runs", J.List (runs @ [ run_json r ~argv ~wall_s ])) ])

(* {1 Compare} *)

let get path j = List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path
let num path j = Option.bind (get path j) J.as_float

type side = { s : Stats.summary; values : float list }

(* A set's view of one metric: over its runs' values when it has
   several runs, else the quartiles of the one run's samples. *)
let side runs name =
  let values = List.filter_map (num [ "end_to_end"; name; "value" ]) runs in
  match (values, runs) with
  | [], _ -> None
  | [ v ], [ run ] ->
    let q k = Option.value ~default:v (num [ "end_to_end"; name; k ] run) in
    Some { s = { median = v; q1 = q "q1"; q3 = q "q3"; n = 1 }; values }
  | _ -> Some { s = Stats.summarize (Array.of_list values); values }

let failed_share runs =
  let sum k = List.fold_left (fun a r -> a +. Option.value ~default:0. (num [ k ] r)) 0. runs in
  let checks = sum "checks" in
  if checks = 0. then 0. else 100. *. sum "failed" /. checks

let verdict ~better ~bound base nw =
  let gain =
    let rel = (nw.s.median -. base.s.median) /. base.s.median in
    if better = Metric.Higher then rel else -.rel
  in
  let spread =
    Float.max (base.s.q3 -. base.s.q1) (nw.s.q3 -. nw.s.q1) /. Float.abs base.s.median
  in
  let beats a b = if better = Metric.Higher then a > b else a < b in
  let all_better =
    List.for_all (fun n -> List.for_all (fun b -> beats n b) base.values) nw.values
  in
  if spread > bound then if all_better then "better" else "unresolved"
  else if gain > bound then "better"
  else if gain >= -.bound then "within bound"
  else "worse"

let compare spec base_path new_path =
  let base = load_runs base_path and nw = load_runs new_path in
  let of_workload runs w =
    let mine = List.filter (fun r -> get [ "workload" ] r = Some (J.Str w)) runs in
    let untraced = List.filter (fun r -> get [ "traced" ] r = Some (J.Bool false)) mine in
    if untraced = [] then mine else untraced
  in
  let drift runs =
    List.length (List.filter (fun r -> get [ "manifest"; "host_drift" ] r = Some (J.Bool true)) runs)
  in
  Printf.printf "base %s: %d run(s), host_drift in %d\nnew  %s: %d run(s), host_drift in %d\n"
    base_path (List.length base) (drift base) new_path (List.length nw) (drift nw);
  Printf.printf "%-14s %-17s %-34s %-34s %-9s %s\n" "workload" "metric" "base median (q1..q3, n)"
    "new median (q1..q3, n)" "new/base" "verdict";
  let rose = ref false in
  List.iter
    (fun w ->
      let b = of_workload base w and n = of_workload nw w in
      if b <> [] && n <> [] then begin
        List.iter
          (fun ((d : Metric.def), bound) ->
            match (side b d.name, side n d.name) with
            | Some bs, Some ns ->
              let show x = Printf.sprintf "%.5g (%.5g..%.5g, %d)" x.s.median x.s.q1 x.s.q3 x.s.n in
              Printf.printf "%-14s %-17s %-34s %-34s %-9.4f %s\n" w d.name (show bs) (show ns)
                (ns.s.median /. bs.s.median)
                (verdict ~better:d.better ~bound bs ns)
            | _ -> ())
          spec.Spec.end_to_end;
        let fb = failed_share b and fn = failed_share n in
        Printf.printf "%-14s %-17s %-34.4f %-34.4f %-9s %s\n" w "failed_pct" fb fn "-"
          (if fn > fb then "ROSE" else "no rise");
        if fn > fb then rose := true
      end)
    spec.Spec.workloads;
  if !rose then 1 else 0
