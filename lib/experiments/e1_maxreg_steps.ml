(* E1 — Theorem 6 / the max-register tradeoff point.

   Paper claims: Algorithm A has ReadMax O(1) and WriteMax(v)
   O(min(log N, log v)); the AAC register has both operations O(log M);
   the CAS-loop baseline has ReadMax O(1) and solo WriteMax O(1) (but is
   not wait-free).  Measured as exact event counts on the simulator. *)

open Memsim

type row = {
  impl : string;
  n : int;
  bound : int;
  read_steps : int;
  write_small : int;   (* WriteMax(3): worst over fresh registers *)
  write_mid : int;     (* WriteMax(~sqrt bound) *)
  write_large : int;   (* WriteMax(bound-1) *)
}

(* Each write is timed on a fresh register.  The read is timed on the
   register WriteMax(bound-1) left behind: a read's step count depends
   on the stored maximum, not on which process wrote it, and at N = 4096
   a fresh AAC register is an eager tree of 2^24 switches. *)
let measure impl ~n ~bound =
  let write v =
    let session = Session.create () in
    let reg = Harness.Instances.maxreg_sim session ~n ~bound impl in
    let steps =
      Harness.Measure.steps session (fun () -> reg.write_max ~pid:(n - 1) v)
    in
    (session, reg, steps)
  in
  let write_steps v =
    let _, _, steps = write v in
    steps
  in
  let session, reg, write_large = write (bound - 1) in
  let read_steps =
    Harness.Measure.steps session (fun () -> ignore (reg.read_max ()))
  in
  { impl = Harness.Instances.maxreg_name impl;
    n;
    bound;
    read_steps;
    write_small = write_steps 3;
    write_mid = write_steps (max 4 (int_of_float (sqrt (float_of_int bound))));
    write_large }

let sweep ?(ns = [ 16; 64; 256; 1024 ]) () =
  List.concat_map
    (fun n ->
      let bound = n * n in
      List.map
        (fun impl -> measure impl ~n ~bound)
        [ Harness.Instances.Algorithm_a;
          Harness.Instances.Aac_maxreg;
          Harness.Instances.B1_maxreg;
          Harness.Instances.Cas_maxreg ])
    ns

let table rows =
  Harness.Tables.render
    ~title:"E1: max-register step complexity (exact event counts, solo ops)"
    ~header:
      [ "impl"; "N"; "M"; "ReadMax"; "WriteMax(3)"; "WriteMax(sqrt M)";
        "WriteMax(M-1)" ]
    (List.map
       (fun r ->
         [ r.impl; string_of_int r.n; string_of_int r.bound;
           string_of_int r.read_steps; string_of_int r.write_small;
           string_of_int r.write_mid; string_of_int r.write_large ])
       rows)

let run ?ns () = table (sweep ?ns ())
