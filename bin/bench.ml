(* bin/bench.exe — the domain-scaling native-backend benchmark.

     bench [--quick] [--out BENCH_NATIVE.json] [--baseline FILE]
           [--max-domains P] [--seconds S] [--trials T]
           [--read-shares 0,50,90,99]

   Prints the throughput table and writes the machine-readable trajectory
   (schema "bench-native/v4": median throughput with rsd noise figure,
   latency percentiles from the metered pass, contention metrics for the
   unboxed backend, combiner metrics for the flat-combining backend and
   epoch-flip/combining-share fields for the adaptive backend)
   used by EXPERIMENTS.md and the CI smoke job.  With [--baseline] the
   fresh rows are diffed against a previously written trajectory —
   warn-only: regressions are reported, never fatal. *)

open Cmdliner

(* --dial: the tradeoff-dial sweep instead of the backend sweep.  The
   certified step ceilings printed next to the measured solo steps come
   from the same budget functions the C1 certifier enforces, so the
   table is "measured frontier vs certified envelope" line by line. *)
let run_dial cfg out =
  let n = Benchkit.Bench_dial.n in
  let steps = Benchkit.Bench_dial.steps_rows ~n in
  let envelope dial =
    let f = Treeprim.Dial.width ~n dial in
    let env b =
      match Lint.Summary.envelope ~n b with Some e -> e | None -> max_int
    in
    ( env (Lint.Budgets.dial_read_budget ~f ~n),
      env (Lint.Budgets.dial_update_budget ~f ~n) )
  in
  print_string
    (Benchkit.Bench_dial.steps_table ~envelope ~n steps);
  print_newline ();
  let rows =
    Benchkit.Bench_dial.sweep
      ~progress:(fun what -> Printf.eprintf "bench: %s\n%!" what)
      cfg
  in
  print_string (Benchkit.Bench_dial.table rows);
  let doc = Benchkit.Bench_dial.to_json ~cfg ~steps rows in
  let out = if out = "BENCH_NATIVE.json" then "BENCH_DIAL.json" else out in
  Obs.Json_out.to_file out doc;
  Printf.printf "\nwrote %s (%d rows)\n" out (List.length rows)

let run_backends cfg out baseline =
  let rows =
    Benchkit.Bench_native.sweep
      ~progress:(fun what -> Printf.eprintf "bench: %s\n%!" what)
      cfg
  in
  print_string (Benchkit.Bench_native.table rows);
  let doc = Benchkit.Bench_native.to_json ~cfg rows in
  Obs.Json_out.to_file out doc;
  Printf.printf "\nwrote %s (%d rows)\n" out (List.length rows);
  match baseline with
  | None -> ()
  | Some file ->
    (match
       let contents = In_channel.with_open_text file In_channel.input_all in
       Obs.Json_out.parse contents
     with
     | base ->
       print_newline ();
       print_string
         (Benchkit.Baseline.report ~baseline:base ~current:doc ())
     | exception Sys_error msg ->
       Printf.eprintf "bench: cannot read baseline: %s\n" msg
     | exception Obs.Json_out.Parse_error msg ->
       Printf.eprintf "bench: baseline %s does not parse: %s\n" file msg)

(* Bad sweep inputs (non-positive or non-finite seconds, zero trials,
   shares outside 0..100, max-domains < 1) and a --baseline given with
   --dial (Baseline reads bench-native trajectories only) are refused
   before anything runs: the error is printed and the exit status is
   non-zero. *)
let run dial quick out baseline max_domains seconds trials read_shares =
  match
    if dial && Option.is_some baseline then
      invalid_arg "--baseline diffs bench-native trajectories, not --dial"
    else if dial then
      `Dial
        (Benchkit.Bench_dial.config ~quick ~max_domains ?seconds ?trials
           ~read_shares ())
    else
      `Backends
        (Benchkit.Bench_native.config ~quick ~max_domains ?seconds ?trials
           ~read_shares ())
  with
  | exception Invalid_argument msg -> `Error (false, msg)
  | `Dial cfg -> `Ok (run_dial cfg out)
  | `Backends cfg -> `Ok (run_backends cfg out baseline)

let dial =
  Arg.(value & flag
       & info [ "dial" ]
           ~doc:
             "Run the tradeoff-dial sweep (Dial_counter at every dial \
              point: exact solo steps vs the certified envelope, then a \
              throughput sweep) instead of the backend sweep.  Writes \
              BENCH_DIAL.json unless --out is given.")

let quick =
  Arg.(value & flag
       & info [ "quick" ] ~doc:"Single short trial per cell; CI smoke mode.")

let out =
  Arg.(value
       & opt string "BENCH_NATIVE.json"
       & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the JSON trajectory.")

let baseline =
  Arg.(value
       & opt (some string) None
       & info [ "baseline" ] ~docv:"FILE"
           ~doc:
             "Diff the fresh rows against a previously written trajectory \
              (schema v2, v3 or v4); report regressions, warn-only.  Not \
              with --dial.")

let max_domains =
  Arg.(value & opt int 4
       & info [ "max-domains" ] ~docv:"P"
           ~doc:"Sweep domain counts 1,2,4,.. up to $(docv).")

let seconds =
  Arg.(value & opt (some float) None
       & info [ "seconds" ] ~docv:"S" ~doc:"Seconds per timed trial.")

let trials =
  Arg.(value & opt (some int) None
       & info [ "trials" ] ~docv:"T" ~doc:"Timed trials per cell.")

let read_shares =
  Arg.(value
       & opt (list int) [ 0; 50; 90; 99 ]
       & info [ "read-shares" ] ~docv:"PCTS"
           ~doc:"Comma-separated read percentages to sweep.")

let cmd =
  Cmd.v
    (Cmd.info "bench" ~version:"1.0"
       ~doc:
         "Domain-scaling throughput of the boxed, unboxed, flat-combining \
          and contention-adaptive native backends (PODC'14 reproduction).")
    Term.(
      ret
        (const run $ dial $ quick $ out $ baseline $ max_domains $ seconds
       $ trials $ read_shares))

let () = exit (Cmd.eval cmd)
