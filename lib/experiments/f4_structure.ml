(* F4 — the data structure of Figure 4, audited.

   Leaf depths of the composite tree: the v-th leaf of the B1 left subtree
   sits at depth O(log v) (so cheap values are cheap to write), and every
   leaf of the complete right subtree sits at depth ~ log N. *)

open Memsim

let run ?(n = 1024) () =
  let session = Session.create () in
  let module A = Boxed.Algorithm_a in
  let t =
    Boxed.Raw.with_memory (Smem.Sim_memory.bind session) (A.create ~n)
  in
  let ceil_log2 x =
    let rec go d v = if v >= x then d else go (d + 1) (2 * v) in
    go 0 1
  in
  let tl_rows =
    List.filter_map
      (fun v ->
        if v >= n - 1 then None
        else
          let d = A.tl_leaf_depth t v in
          Some
            [ Printf.sprintf "TL leaf %d" v; string_of_int d;
              string_of_int ((2 * ceil_log2 (v + 2)) + 3);
              string_of_bool (d <= (2 * ceil_log2 (v + 2)) + 3) ])
      [ 0; 1; 3; 7; 15; 63; 255; 1022 ]
  in
  let tr_rows =
    List.map
      (fun i ->
        let d = A.tr_leaf_depth t i in
        [ Printf.sprintf "TR leaf %d" i; string_of_int d;
          string_of_int (ceil_log2 n + 2);
          string_of_bool (d <= ceil_log2 n + 2) ])
      [ 0; n / 2; n - 1 ]
  in
  Harness.Tables.render
    ~title:
      (Printf.sprintf
         "F4: Algorithm A data structure, N=%d — leaf depths (B1 left \
          subtree: O(log v); complete right subtree: O(log N))"
         n)
    ~header:[ "leaf"; "depth"; "bound"; "ok" ]
    (tl_rows @ tr_rows)
