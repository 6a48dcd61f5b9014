(* The experiment driver: regenerates every table of EXPERIMENTS.md.

     repro e1 | ... | e10 | f4 | a1 | a2 | frontier | all

   Sizes are chosen so `repro all` completes in a couple of minutes; pass
   --quick for a fast smoke pass.  `--trace out.json` additionally dumps a
   Chrome trace_event file of a simulated execution (currently emitted by
   e4's Theorem 1 adversary; load it in chrome://tracing or Perfetto). *)

(* Experiments that run in the simulator can export an execution trace;
   [trace_out] is the --trace destination (most experiments ignore it with
   a note to stderr). *)
let no_trace trace_out =
  Option.iter
    (fun _ ->
      Printf.eprintf
        "repro: --trace is only emitted by e4 (the Theorem 1 adversary); \
         ignoring\n\
         %!")
    trace_out

(* The certified (read, increment) step ceilings of a dial point: the
   budget functions the C1 certifier enforces, evaluated at [n], so the
   frontier's steps table reads measured beside certified line by line. *)
let dial_envelope ~n dial =
  let f = Treeprim.Dial.width ~n dial in
  let env b =
    match Lint.Summary.envelope ~n b with Some e -> e | None -> max_int
  in
  ( env (Lint.Budgets.dial_read_budget ~f ~n),
    env (Lint.Budgets.dial_update_budget ~f ~n) )

let experiments :
    (string * string * (quick:bool -> trace_out:string option -> string)) list =
  [ ( "e1", "max-register step complexity (Theorem 6 vs AAC)",
      fun ~quick ~trace_out ->
        no_trace trace_out;
        let ns = if quick then [ 16; 64 ] else [ 16; 64; 256; 1024; 4096 ] in
        Experiments.E1_maxreg_steps.run ~ns () );
    ( "e2", "counter step complexity envelopes",
      fun ~quick ~trace_out ->
        no_trace trace_out;
        let ns = if quick then [ 4; 16 ] else [ 4; 16; 64; 256; 1024 ] in
        Experiments.E2_counter_steps.run ~ns () );
    ( "e3", "snapshot step complexity envelopes",
      fun ~quick ~trace_out ->
        no_trace trace_out;
        let ns = if quick then [ 4; 16 ] else [ 4; 16; 64; 256; 1024 ] in
        Experiments.E3_snapshot_steps.run ~ns () );
    ( "e4", "Theorem 1 adversary: rounds vs log3(N/f(N))",
      fun ~quick ~trace_out ->
        let ns = if quick then [ 8; 16 ] else [ 8; 16; 32; 64; 128; 256 ] in
        match trace_out with
        | None -> Experiments.E4_theorem1.run ~ns ()
        | Some path ->
          (* keep the first (smallest-N, first-impl) execution: it is the
             one a human can still read in a trace viewer *)
          let saved = ref false in
          let on_trace trace =
            if not !saved then begin
              saved := true;
              Obs.Trace_export.to_file ~name:"theorem1-adversary" path trace
            end
          in
          let out = Experiments.E4_theorem1.run ~on_trace ~ns () in
          out ^ Printf.sprintf "\nwrote Chrome trace to %s\n" path );
    ( "e5", "Theorem 3 adversary: essential-set iterations (Figs. 1-3)",
      fun ~quick ~trace_out ->
        no_trace trace_out;
        let ks = if quick then [ 16; 64 ] else [ 16; 64; 256; 1024; 4096; 16384 ] in
        Experiments.E5_theorem3.run ~ks () );
    ( "e6", "linearizability sweep (Theorem 5 + the line-16 finding)",
      fun ~quick ~trace_out ->
        no_trace trace_out;
        let schedules = if quick then 50 else 400 in
        Experiments.E6_linearizability.run ~schedules () );
    ( "e7", "native throughput, boxed, unboxed and dispatched (the O(1)-read payoff)",
      fun ~quick ~trace_out ->
        no_trace trace_out;
        if quick then Experiments.E7_native.run ~seconds:0.05 ~trials:1 ()
        else Experiments.E7_native.run ~seconds:0.2 ~trials:3 () );
    ( "e8", "Lemma 1 growth profile + the Definition 1 visibility finding",
      fun ~quick ~trace_out ->
        no_trace trace_out;
        let n = if quick then 16 else 48 in
        Experiments.E8_lemma1.run ~n () );
    ( "e9", "liveness audit: wait-freedom vs interference",
      fun ~quick ~trace_out ->
        ignore quick;
        no_trace trace_out;
        Experiments.E9_liveness.run () );
    ( "e10", "workload crossovers: where each side of the tradeoff wins",
      fun ~quick ~trace_out ->
        no_trace trace_out;
        let seconds = if quick then 0.1 else 0.3 in
        Experiments.E10_crossover.run ~seconds () );
    ( "f4", "Figure 4 data-structure audit",
      fun ~quick ~trace_out ->
        no_trace trace_out;
        let n = if quick then 64 else 1024 in
        Experiments.F4_structure.run ~n () );
    ( "a1", "ablation: B1 vs complete left subtree in Algorithm A",
      fun ~quick ~trace_out ->
        no_trace trace_out;
        let ns = if quick then [ 64; 1024 ] else [ 64; 1024; 16384 ] in
        Experiments.A1_b1_ablation.run ~ns () );
    ( "a2", "ablation: double vs single refresh (exhaustive interleavings)",
      fun ~quick ~trace_out ->
        ignore quick;
        no_trace trace_out;
        Experiments.A2_refresh_ablation.run () );
    ( "frontier", "the tradeoff dial: solo steps under the certified envelope, \
                   throughput per dial point",
      fun ~quick ~trace_out ->
        no_trace trace_out;
        let seconds, trials = if quick then (0.05, 1) else (0.2, 3) in
        Experiments.Frontier.run ~envelope:dial_envelope ~seconds ~trials () ) ]

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps, faster run.")

let trace_out =
  Arg.(value
       & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:
             "Write a Chrome trace_event JSON of a simulated execution to \
              $(docv) (open in chrome://tracing or ui.perfetto.dev).  \
              Currently emitted by e4; other experiments note and ignore it.")

let setup_logs =
  let setup style_renderer level =
    Fmt_tty.setup_std_outputs ?style_renderer ();
    Logs.set_level level;
    Logs.set_reporter (Logs_fmt.reporter ())
  in
  Term.(const setup $ Fmt_cli.style_renderer () $ Logs_cli.level ())

let run_one name descr f =
  let action () q t =
    print_string (f ~quick:q ~trace_out:t);
    print_newline ()
  in
  Cmd.v
    (Cmd.info name ~doc:descr)
    Term.(const action $ setup_logs $ quick $ trace_out)

let all_cmd =
  let action () q t =
    List.iter
      (fun (name, _, f) ->
        Printf.printf "=== %s ===\n%!" name;
        (* only e4 consumes --trace; silence the per-experiment note *)
        print_string (f ~quick:q ~trace_out:(if name = "e4" then t else None));
        print_newline ())
      experiments
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment in sequence.")
    Term.(const action $ setup_logs $ quick $ trace_out)

let () =
  let cmds = List.map (fun (n, d, f) -> run_one n d f) experiments @ [ all_cmd ] in
  let info =
    Cmd.info "repro" ~version:"1.0"
      ~doc:
        "Regenerate the tables of the PODC'14 paper reproduction (Hendler & \
         Khait, Complexity Tradeoffs for Read and Update Operations)."
  in
  exit (Cmd.eval (Cmd.group info cmds))
