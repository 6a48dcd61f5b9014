(* The benchmark of record.  See README.md.

     run.exe --workload NAME --seed N --seconds S --trace 0|1
             [--out FILE] [--trace-out FILE] [--spec BENCHMARK.json]
     run.exe --quick [--spec BENCHMARK.json]
     run.exe --compare BASE.json NEW.json [--spec BENCHMARK.json]

   The last line of a run's standard output is its JSON result. *)

open Bench_suite

let usage () =
  prerr_endline
    "usage: run.exe --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] \
     [--trace-out FILE] [--spec FILE]\n\
    \       run.exe --quick [--spec FILE]\n\
    \       run.exe --compare BASE.json NEW.json [--spec FILE]";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench/suite: " ^ s); exit 2) fmt

type args = {
  mutable workload : string option;
  mutable seed : int option;
  mutable seconds : float option;
  mutable trace : bool option;
  mutable out : string option;
  mutable trace_out : string option;
  mutable spec : string;
  mutable quick : bool;
  mutable compare : (string * string) option;
}

let parse argv =
  let a =
    { workload = None; seed = None; seconds = None; trace = None; out = None;
      trace_out = None; spec = "BENCHMARK.json"; quick = false; compare = None }
  in
  let int_arg k v = match int_of_string_opt v with Some i -> i | None -> die "%s: not an integer: %S" k v in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a.workload <- Some v; go rest
    | "--seed" :: v :: rest -> a.seed <- Some (int_arg "--seed" v); go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
       | Some s when s > 0. && Float.is_finite s -> a.seconds <- Some s
       | _ -> die "--seconds: not a positive number: %S" v);
      go rest
    | "--trace" :: v :: rest ->
      (match v with
       | "0" -> a.trace <- Some false
       | "1" -> a.trace <- Some true
       | _ -> die "--trace: expected 0 or 1, got %S" v);
      go rest
    | "--out" :: v :: rest -> a.out <- Some v; go rest
    | "--trace-out" :: v :: rest -> a.trace_out <- Some v; go rest
    | "--spec" :: v :: rest -> a.spec <- v; go rest
    | "--quick" :: rest -> a.quick <- true; go rest
    | "--compare" :: b :: n :: rest -> a.compare <- Some (b, n); go rest
    | x :: _ -> die "unexpected argument %S (see --help)" x
  in
  (match Array.to_list argv with
   | _ :: ("--help" | "-help") :: _ -> usage ()
   | _ :: rest -> go rest
   | [] -> ());
  a

let load_spec path =
  let spec = try Spec.load path with Failure e -> die "%s" e in
  (match Spec.problems spec with
   | [] -> ()
   | ps -> die "%s and the program disagree:\n  %s" path (String.concat "\n  " ps));
  spec

let kind_of name =
  match List.assoc_opt name Runner.workloads with
  | Some k -> k
  | None ->
    die "unknown workload %S (one of: %s)" name
      (String.concat ", " (List.map fst Runner.workloads))

(* Every workload of the spec, briefly, traced: both result lines, and
   exactly the spec's metric names in each. *)
let quick spec =
  let t0 = Unix.gettimeofday () in
  (* model-check first: its pass also serves the other traced runs *)
  let order =
    List.sort (fun a b -> Bool.compare (a <> "model-check") (b <> "model-check"))
      spec.Spec.workloads
  in
  let ok =
    List.for_all
      (fun w ->
        let r =
          Runner.run (kind_of w) ~seed:1 ~seconds:0.4 ~traced:true ~quick:true
            ~trace_out:None
        in
        Report.print r;
        print_endline (Report.result_line { r with traced = false });
        print_endline (Report.result_line r);
        let names l = List.map fst l in
        let emitted_ok =
          names r.end_to_end = List.map (fun ((d : Metric.def), _) -> d.name) spec.end_to_end
          && names r.per_layer = List.map (fun (d : Metric.def) -> d.name) spec.per_layer
        in
        if not emitted_ok then Printf.printf "%s: emitted metrics differ from the spec\n" w;
        if r.failures > 0 then Printf.printf "%s: %d failed checks\n" w r.failures;
        emitted_ok && r.failures = 0)
      order
  in
  Printf.printf "quick: %d workload(s) in %.1f s: %s\n" (List.length order)
    (Unix.gettimeofday () -. t0)
    (if ok then "ok" else "FAILED");
  exit (if ok then 0 else 1)

let () =
  let a = parse Sys.argv in
  match (a.compare, a.quick) with
  | Some (base, nw), _ -> exit (Report.compare (load_spec a.spec) base nw)
  | None, true -> quick (load_spec a.spec)
  | None, false ->
    let req name = function Some v -> v | None -> die "missing %s (see --help)" name in
    let name = req "--workload" a.workload in
    let kind = kind_of name in
    let seed = req "--seed" a.seed in
    let seconds = req "--seconds" a.seconds in
    let traced = req "--trace" a.trace in
    (* checked whenever present: the spec and the program must not drift *)
    if Sys.file_exists a.spec then ignore (load_spec a.spec : Spec.t);
    let trace_out =
      match a.trace_out with
      | Some p -> Some p
      | None when traced ->
        if not (Sys.file_exists "bench-out") then Sys.mkdir "bench-out" 0o755;
        Some (Printf.sprintf "bench-out/trace-%s-%d.json" name seed)
      | None -> None
    in
    let t0 = Unix.gettimeofday () in
    let r = Runner.run kind ~seed ~seconds ~traced ~quick:false ~trace_out in
    let wall_s = Unix.gettimeofday () -. t0 in
    Report.print r;
    Option.iter (fun p -> Printf.printf "  trace: %s\n" p) trace_out;
    Option.iter (fun p -> Report.append p r ~argv:Sys.argv ~wall_s) a.out;
    print_endline (Report.result_line r)
