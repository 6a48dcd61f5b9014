(* E10 — where the tradeoff's crossovers fall.

   The tradeoff only matters if workloads on both sides of it exist.  Two
   crossover sweeps:

   (a) Step-count crossover, counters: a workload of I increments and R
       reads costs (per the measured per-op step counts)

           naive    ~ 2*I + N*R
           f-array  ~ (8 log N)*I + R

       so the f-array wins once reads are more than ~ (8 log N)/N of the
       mix; the table reports the measured per-op costs and the resulting
       break-even read share for several N.

   (b) Wall-clock crossover, max registers: native throughput of
       Algorithm A vs the AAC register as the read share sweeps 0..99%.
       The writes cycle through the M = 256 values, so every write after
       the first 256 repeats a value already written.  Algorithm A still
       propagates a repeat (its TL leaf already holds the value, and the
       repaired line 16 helps the writer that may not have propagated
       it), while an AAC repeat below a set switch stops after one read.
       So the write-heavy end times Algorithm A's helping walk against
       AAC's early exit, not fresh writes against fresh writes. *)

open Memsim

(* {1 (a) counters, exact step counts} *)

type counter_row = {
  n : int;
  naive_read : int;
  naive_inc : int;
  farray_read : int;
  farray_inc : int;
  breakeven_read_share : float;
      (* read share r* where r*naive_read + (1-r)*naive_inc =
         r*farray_read + (1-r)*farray_inc *)
}

let counter_crossover ~n =
  let measure impl =
    let session = Session.create () in
    let c = Harness.Instances.counter_sim session ~n ~bound:(4 * n) impl in
    for pid = 0 to n - 1 do
      c.increment ~pid
    done;
    let inc = Harness.Measure.steps session (fun () -> c.increment ~pid:0) in
    let read = Harness.Measure.steps session (fun () -> ignore (c.read ())) in
    (read, inc)
  in
  let naive_read, naive_inc = measure Harness.Instances.Naive_counter in
  let farray_read, farray_inc = measure Harness.Instances.Farray_counter in
  (* r * nr + (1-r) * ni = r * fr + (1-r) * fi *)
  let breakeven =
    let nr = float_of_int naive_read
    and ni = float_of_int naive_inc
    and fr = float_of_int farray_read
    and fi = float_of_int farray_inc in
    (fi -. ni) /. ((nr -. fr) +. (fi -. ni))
  in
  { n; naive_read; naive_inc; farray_read; farray_inc;
    breakeven_read_share = breakeven }

let counter_table rows =
  Harness.Tables.render
    ~title:
      "E10a: counter crossover — steps per op and the read share above \
       which the f-array counter beats the naive counter"
    ~header:
      [ "N"; "naive read"; "naive inc"; "farray read"; "farray inc";
        "break-even read share" ]
    (List.map
       (fun r ->
         [ string_of_int r.n; string_of_int r.naive_read;
           string_of_int r.naive_inc; string_of_int r.farray_read;
           string_of_int r.farray_inc;
           Printf.sprintf "%.1f%%" (100. *. r.breakeven_read_share) ])
       rows)

(* {1 (b) max registers, native throughput across read shares} *)

type throughput_row = {
  read_pct : int;
  alg_a : float;
  aac : float;
  winner : string;
}

let maxreg_crossover ~seconds =
  let domains = Harness.Throughput.recommended_domains ~floor:2 ~cap:4 () in
  (* A register sized for a large system (N = 4096 process slots) with a
     small value bound (M = 256): Algorithm A's writes pay O(log v) B1
     levels and AAC's at most O(log M) switch levels. *)
  let n = 4096 and bound = 256 in
  (* One operation per harness call; [i] is the call's base. *)
  let run impl ~read_pct =
    let reg = Harness.Instances.maxreg_native ~n ~bound impl in
    let rngs =
      Array.init domains (fun d -> Random.State.make [| d; read_pct |])
    in
    Harness.Throughput.run_batched ~domains ~seconds ~batch:1
      ~op:(fun d i ->
        if Random.State.int rngs.(d) 100 < read_pct then
          ignore (reg.read_max ())
        else reg.write_max ~pid:d (((i * domains) + d) mod bound))
      ()
  in
  List.map
    (fun read_pct ->
      let alg_a = run Harness.Instances.Algorithm_a ~read_pct in
      let aac = run Harness.Instances.Aac_maxreg ~read_pct in
      { read_pct;
        alg_a;
        aac;
        winner = (if alg_a >= aac then "algorithm-a" else "aac") })
    [ 0; 25; 50; 75; 90; 99 ]

let maxreg_table rows =
  Harness.Tables.render
    ~title:
      "E10b: max-register crossover — native throughput (Mops/s), N=4096 \
       slots, M=256, as the read share sweeps; writes cycle through the 256 \
       values, so all but the first 256 repeat one already written; \
       Algorithm A still propagates a repeat, an AAC repeat below a set \
       switch stops after one read"
    ~header:[ "read %"; "algorithm-a"; "aac"; "winner" ]
    (List.map
       (fun r ->
         [ string_of_int r.read_pct;
           Printf.sprintf "%.2f" (r.alg_a /. 1e6);
           Printf.sprintf "%.2f" (r.aac /. 1e6);
           r.winner ])
       rows)

let run ?(seconds = 0.25) () =
  counter_table (List.map (fun n -> counter_crossover ~n) [ 16; 64; 256; 1024 ])
  ^ "\n"
  ^ maxreg_table (maxreg_crossover ~seconds)
