(* E3 — snapshot step complexity envelopes.

   Paper (citing [3, 14]): the f-array snapshot scans in O(1) and updates
   in O(log N) (our CAS-based stand-in for the polylog restricted-use
   snapshot of [3]); double-collect updates in O(1) but scans in O(N) solo
   and is only obstruction-free; the Afek et al. snapshot is wait-free with
   O(N)-per-collect costs. *)

open Memsim

type row = {
  impl : string;
  n : int;
  scan_steps : int;
  update_steps : int;
  wait_free : bool;
}

let measure impl ~n =
  let session = Session.create () in
  let s = Harness.Instances.snapshot_sim session ~n impl in
  for pid = 0 to n - 1 do
    s.update ~pid (pid + 1)
  done;
  let update_steps =
    Harness.Measure.max_steps session ~trials:n (fun pid ->
        s.update ~pid (pid + 100))
  in
  let scan_steps =
    Harness.Measure.steps session (fun () -> ignore (s.scan ()))
  in
  { impl = Harness.Instances.snapshot_name impl;
    n;
    scan_steps;
    update_steps;
    wait_free = impl <> Harness.Instances.Double_collect }

let sweep ?(ns = [ 4; 16; 64; 256 ]) () =
  List.concat_map
    (fun n ->
      List.map
        (fun impl -> measure impl ~n)
        [ Harness.Instances.Farray_snapshot;
          Harness.Instances.Double_collect;
          Harness.Instances.Afek ])
    ns

let table rows =
  Harness.Tables.render
    ~title:"E3: snapshot step complexity (exact event counts, solo ops)"
    ~header:[ "impl"; "N"; "Scan"; "Update (worst)"; "wait-free" ]
    (List.map
       (fun r ->
         [ r.impl; string_of_int r.n; string_of_int r.scan_steps;
           string_of_int r.update_steps; string_of_bool r.wait_free ])
       rows)

let run ?ns () = table (sweep ?ns ())
