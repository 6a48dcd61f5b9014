(* E2 — counter step complexity envelopes.

   Paper (citing [2, 14]): AAC counter reads in O(log B) and increments in
   O(log N log B); the f-array counter reads in O(1) and increments in
   O(log N) (Theorem 1 shows that is optimal); the naive counter reads in
   O(N) and increments in O(1). *)

open Memsim

type row = {
  impl : string;
  n : int;
  read_steps : int;
  inc_steps : int;  (* worst over processes, after n warm-up increments *)
}

let measure impl ~n =
  let bound = 4 * n in
  let session = Session.create () in
  let c = Harness.Instances.counter_sim session ~n ~bound impl in
  (* warm up: one increment per process, so tree paths are populated *)
  for pid = 0 to n - 1 do
    c.increment ~pid
  done;
  let inc_steps =
    Harness.Measure.max_steps session ~trials:n (fun pid -> c.increment ~pid)
  in
  let read_steps =
    Harness.Measure.steps session (fun () -> ignore (c.read ()))
  in
  { impl = Harness.Instances.counter_name impl; n; read_steps; inc_steps }

let sweep ?(ns = [ 4; 16; 64; 256 ]) () =
  List.concat_map
    (fun n ->
      List.map
        (fun impl -> measure impl ~n)
        [ Harness.Instances.Farray_counter;
          Harness.Instances.Aac_counter;
          Harness.Instances.Naive_counter;
          Harness.Instances.Snapshot_counter Harness.Instances.Farray_snapshot ])
    ns

let table rows =
  Harness.Tables.render
    ~title:
      "E2: counter step complexity (exact event counts; B = 4N increments)"
    ~header:[ "impl"; "N"; "CounterRead"; "CounterIncrement (worst)" ]
    (List.map
       (fun r ->
         [ r.impl; string_of_int r.n; string_of_int r.read_steps;
           string_of_int r.inc_steps ])
       rows)

let run ?ns () = table (sweep ?ns ())
