(* A1 — ablating the B1 left subtree of Algorithm A.

   Design choice under test: the paper uses a Bentley-Yao B1 tree for TL so
   that WriteMax(v) costs O(log v) rather than O(log N).  Replacing TL with
   a complete tree over the same leaves keeps correctness (and the O(1)
   read) but every small-value write pays the full O(log N) depth. *)

open Memsim

type row = {
  n : int;
  v : int;
  b1_steps : int;
  complete_steps : int;
}

let measure ~tl_shape ~n v =
  let session = Session.create () in
  let reg =
    Boxed.Raw.with_memory (Smem.Sim_memory.bind session) (fun () ->
        Boxed.Algorithm_a.create ~tl_shape ~n ())
  in
  Harness.Measure.steps session (fun () ->
      Boxed.Algorithm_a.write_max reg ~pid:0 v)

let sweep ?(ns = [ 64; 1024; 16384 ]) () =
  List.concat_map
    (fun n ->
      List.filter_map
        (fun v ->
          if v >= n - 1 then None
          else
            Some
              { n;
                v;
                b1_steps = measure ~tl_shape:`B1 ~n v;
                complete_steps = measure ~tl_shape:`Complete ~n v })
        [ 1; 3; 15; 255 ])
    ns

let table rows =
  Harness.Tables.render
    ~title:
      "A1: ablation — WriteMax(v) steps with the B1 left subtree vs a \
       complete left subtree (the B1 shape is what makes small writes \
       cheap)"
    ~header:[ "N"; "v"; "B1 (paper)"; "complete (ablated)" ]
    (List.map
       (fun r ->
         [ string_of_int r.n; string_of_int r.v; string_of_int r.b1_steps;
           string_of_int r.complete_steps ])
       rows)

let run ?ns () = table (sweep ?ns ())
