(* The tradeoff-dial sweep behind bin/bench.exe --dial: the
   [Dial_counter] family measured at every dial point, in two
   independent sections.

   Steps section (exact, deterministic): each dial's counter is built
   over a Memsim session and its solo shared-memory step counts are read
   off {!Memsim.Session.direct_steps} — a read costs Θ(f) block-root
   collections, an increment O(log(N/f)) in-block propagation.  These
   are the numbers Theorem 1 trades against each other; the table places
   them next to the C1-certified envelope so the measured frontier and
   the statically certified one can be compared line by line (the
   envelope columns are injected by the caller — the lint library knows
   the budgets, this module only measures).

   Throughput section (noisy, honest): the zero-alloc unboxed compile
   of each dial point swept over domain counts and read shares through the
   same batched-closure harness as {!Bench_native}.  All dial points go
   through the same indirect instance-record call path, so the ratios
   between dials are fair even though the absolute numbers sit below
   what a fused closure would show.  The expected picture is the paper's
   frontier: read-heavy mixes favour small f (cheap reads), update-heavy
   mixes favour large f (shallow propagation), with the crossover
   sliding monotonically in the read share. *)

let n = 64

type config = {
  domain_counts : int list;
  read_shares : int list;
  seconds : float;
  trials : int;
  quick : bool;
}

let config ?(quick = false) ?(max_domains = 4) ?seconds ?trials
    ?(read_shares = [ 0; 50; 90; 99 ]) () =
  let seconds =
    match seconds with Some s -> s | None -> if quick then 0.05 else 0.2
  in
  let trials = match trials with Some t -> t | None -> if quick then 1 else 3 in
  Bench_native.check_sweep ~max_domains ~seconds ~trials ~read_shares;
  let rec powers d = if d > max_domains then [] else d :: powers (2 * d) in
  { domain_counts = powers 1; read_shares; seconds; trials; quick }

(* {1 Steps section} *)

type step_row = {
  dial : Treeprim.Dial.t;
  f : int;              (* block count at this n *)
  read_steps : int;
  inc_steps : int;      (* max over all pids (tail block may be shallower) *)
}

let steps_rows ~n =
  List.map
    (fun dial ->
      let session = Memsim.Session.create () in
      let c = Harness.Instances.counter_dial_sim session ~n dial in
      (* warm the structure so the steps measured are steady-state *)
      c.Counters.Counter.increment ~pid:0;
      Memsim.Session.reset_steps session;
      ignore (c.Counters.Counter.read () : int);
      let read_steps = Memsim.Session.direct_steps session in
      let inc_steps = ref 0 in
      for pid = 0 to n - 1 do
        Memsim.Session.reset_steps session;
        c.Counters.Counter.increment ~pid;
        inc_steps := max !inc_steps (Memsim.Session.direct_steps session)
      done;
      { dial; f = Treeprim.Dial.width ~n dial; read_steps;
        inc_steps = !inc_steps })
    Treeprim.Dial.all

(* [envelope dial] returns certified (read, increment) step ceilings to
   print alongside, when the caller has them (bin/bench.exe injects
   {!Lint.Budgets} + {!Lint.Summary.envelope}; benchkit itself stays
   free of the lint dependency). *)
let steps_table ?envelope ~n rows =
  let header =
    [ "dial"; "f"; "read steps"; "inc steps" ]
    @ (match envelope with
       | None -> []
       | Some _ -> [ "read env"; "inc env" ])
  in
  let body =
    List.map
      (fun r ->
        [ Treeprim.Dial.name r.dial;
          string_of_int r.f;
          string_of_int r.read_steps;
          string_of_int r.inc_steps ]
        @ (match envelope with
           | None -> []
           | Some env ->
             let re, ie = env r.dial in
             [ string_of_int re; string_of_int ie ]))
      rows
  in
  Harness.Tables.render
    ~title:(Printf.sprintf "solo steps, N = %d (Memsim, exact)" n)
    ~header body

(* {1 Throughput section} *)

type row = {
  t_dial : Treeprim.Dial.t;
  domains : int;
  read_pct : int;
  mops : float;
  trial_mops : float list;
  rsd : float;
}

let cell ~cfg ~dial ~domains ~read_pct =
  let c, _ =
    Option.get
      (Harness.Instances.counter_backend Harness.Instances.Unboxed ~n
         ~domains (Harness.Instances.Dial dial))
  in
  let read = c.Counters.Counter.read and increment = c.Counters.Counter.increment in
  let pat = Bench_native.read_pattern ~read_pct in
  let mask = Array.length pat - 1 in
  let batch = Bench_native.batch in
  let op d i =
    for j = i to i + batch - 1 do
      if pat.(j land mask) then ignore (read () : int) else increment ~pid:d
    done
  in
  let trial () =
    Harness.Throughput.run_batched ~domains ~seconds:cfg.seconds ~batch ~op ()
    /. 1e6
  in
  ignore (trial () : float);  (* warmup, discarded *)
  let ms = List.init cfg.trials (fun _ -> trial ()) in
  { t_dial = dial; domains; read_pct; mops = Bench_native.median ms;
    trial_mops = ms; rsd = Bench_native.rsd ms }

let sweep ?(progress = fun (_ : string) -> ()) cfg =
  List.concat_map
    (fun dial ->
      List.concat_map
        (fun domains ->
          List.map
            (fun read_pct ->
              progress
                (Printf.sprintf "dial=%s d=%d r=%d%%"
                   (Treeprim.Dial.name dial) domains read_pct);
              cell ~cfg ~dial ~domains ~read_pct)
            cfg.read_shares)
        cfg.domain_counts)
    Treeprim.Dial.all

let table rows =
  let body =
    List.map
      (fun r ->
        [ Treeprim.Dial.name r.t_dial;
          string_of_int r.domains;
          string_of_int r.read_pct;
          Printf.sprintf "%.2f" r.mops;
          Printf.sprintf "%.0f%%" (100. *. r.rsd) ])
      rows
  in
  Harness.Tables.render ~title:"dial sweep (Mops/s, median)"
    ~header:[ "dial"; "domains"; "read%"; "Mops/s"; "rsd" ]
    body

(* {1 JSON trajectory} *)

let to_json ~cfg ~steps rows =
  let open Obs.Json_out in
  Obj
    [ ("schema", Str "bench-dial/v1");
      ("n", Int n);
      ("quick", Bool cfg.quick);
      ( "steps",
        List
          (Stdlib.List.map
             (fun s ->
               Obj
                 [ ("dial", Str (Treeprim.Dial.name s.dial));
                   ("f", Int s.f);
                   ("read_steps", Int s.read_steps);
                   ("inc_steps", Int s.inc_steps) ])
             steps) );
      ( "rows",
        List
          (Stdlib.List.map
             (fun r ->
               Obj
                 [ ("dial", Str (Treeprim.Dial.name r.t_dial));
                   ("domains", Int r.domains);
                   ("read_pct", Int r.read_pct);
                   ("mops", Float r.mops);
                   ("rsd", Float r.rsd);
                   ( "trial_mops",
                     List (Stdlib.List.map (fun m -> Float m) r.trial_mops) ) ])
             rows) ) ]
