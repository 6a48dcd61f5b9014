(* Tests for tree shapes: complete trees, B1 trees (Figure 4's components)
   and the propagate primitive. *)

open Treeprim

let mk_id =
  let c = ref 0 in
  fun () -> incr c; !c

let ceil_log2 n =
  let rec go d v = if v >= n then d else go (d + 1) (2 * v) in
  go 0 1

(* {1 Complete trees} *)

let test_complete_leaf_count () =
  List.iter
    (fun n ->
      let _, leaves = Tree_shape.complete ~mk:mk_id ~nleaves:n () in
      Alcotest.(check int) (Printf.sprintf "n=%d" n) n (Array.length leaves))
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 33; 100 ]

let test_complete_depth_bound () =
  List.iter
    (fun n ->
      let root, leaves = Tree_shape.complete ~mk:mk_id ~nleaves:n () in
      Array.iter
        (fun leaf ->
          let d = Tree_shape.depth leaf in
          Alcotest.(check bool)
            (Printf.sprintf "depth %d <= ceil log2 %d" d n)
            true
            (d <= ceil_log2 n);
          Alcotest.(check bool) "root reachable" true (Tree_shape.root leaf == root))
        leaves)
    [ 1; 2; 3; 5; 8; 13; 64; 100 ]

let test_complete_parent_links () =
  let root, leaves = Tree_shape.complete ~mk:mk_id ~nleaves:8 () in
  Array.iter
    (fun leaf ->
      Alcotest.(check bool) "leaf has no children" true
        (leaf.Tree_shape.left = None && leaf.Tree_shape.right = None))
    leaves;
  let rec check (n : int Tree_shape.node) =
    (match n.Tree_shape.left with
     | Some c ->
       Alcotest.(check bool) "left child's parent" true
         (match c.Tree_shape.parent with Some p -> p == n | None -> false);
       check c
     | None -> ());
    match n.Tree_shape.right with
    | Some c ->
      Alcotest.(check bool) "right child's parent" true
        (match c.Tree_shape.parent with Some p -> p == n | None -> false);
      check c
    | None -> ()
  in
  check root

(* {1 B1 trees} *)

let test_b1_leaf_count () =
  List.iter
    (fun n ->
      let _, leaves = Tree_shape.b1 ~mk:mk_id ~nleaves:n in
      Alcotest.(check int) (Printf.sprintf "n=%d" n) n (Array.length leaves))
    [ 1; 2; 3; 4; 7; 8; 15; 16; 31; 100; 1000 ]

(* The defining property of the B1 tree: leaf v at depth O(log v). *)
let test_b1_depth_logarithmic () =
  let _, leaves = Tree_shape.b1 ~mk:mk_id ~nleaves:4096 in
  Array.iteri
    (fun v leaf ->
      let d = Tree_shape.depth leaf in
      let bound = (2 * ceil_log2 (v + 2)) + 2 in
      Alcotest.(check bool)
        (Printf.sprintf "leaf %d: depth %d <= %d" v d bound)
        true (d <= bound))
    leaves

let test_b1_early_leaves_shallow () =
  let _, leaves = Tree_shape.b1 ~mk:mk_id ~nleaves:65536 in
  (* leaf 0 must be very shallow regardless of tree size *)
  Alcotest.(check bool) "leaf 0 depth <= 2" true
    (Tree_shape.depth leaves.(0) <= 2);
  Alcotest.(check bool) "leaf 1 depth <= 4" true
    (Tree_shape.depth leaves.(1) <= 4);
  (* and the deepest leaf is still logarithmic *)
  let deepest = Tree_shape.depth leaves.(65535) in
  Alcotest.(check bool) "deepest still logarithmic" true (deepest <= 34)

let prop_b1_depth =
  QCheck.Test.make ~name:"b1: depth(leaf v) <= 2 log2(v+2) + 2" ~count:50
    QCheck.(int_range 1 2000)
    (fun n ->
      let _, leaves = Tree_shape.b1 ~mk:mk_id ~nleaves:n in
      Array.length leaves = n
      && Array.for_all Fun.id
           (Array.mapi
              (fun v leaf ->
                Tree_shape.depth leaf <= (2 * ceil_log2 (v + 2)) + 2)
              leaves))

(* {1 Propagate} *)

(* The boxed compile of Propagate over native atomics. *)
module R = Boxed.Raw
module P = Boxed.Propagate

let atomic_tree ~nleaves =
  R.with_memory (module Smem.Atomic_memory) (fun () ->
      Tree_shape.complete ~mk:(fun () -> R.make Memsim.Simval.Bot) ~nleaves ())

let test_propagate_max_reaches_root () =
  let root, leaves = atomic_tree ~nleaves:8 in
  R.set leaves.(5).Tree_shape.data (Memsim.Simval.Int 42);
  P.propagate ~refreshes:2 ~combine:Memsim.Simval.max_val leaves.(5);
  Alcotest.(check bool) "root holds max" true
    (Memsim.Simval.equal (R.get root.Tree_shape.data) (Memsim.Simval.Int 42))

let test_propagate_keeps_maximum () =
  let root, leaves = atomic_tree ~nleaves:4 in
  let write_and_propagate i v =
    R.set leaves.(i).Tree_shape.data (Memsim.Simval.Int v);
    P.propagate ~refreshes:2 ~combine:Memsim.Simval.max_val leaves.(i)
  in
  write_and_propagate 0 10;
  write_and_propagate 3 7;
  write_and_propagate 2 9;
  Alcotest.(check bool) "root still 10" true
    (Memsim.Simval.equal (R.get root.Tree_shape.data) (Memsim.Simval.Int 10));
  write_and_propagate 1 99;
  Alcotest.(check bool) "root now 99" true
    (Memsim.Simval.equal (R.get root.Tree_shape.data) (Memsim.Simval.Int 99))

let () =
  Alcotest.run "treeprim"
    [ ( "complete",
        [ Alcotest.test_case "leaf count" `Quick test_complete_leaf_count;
          Alcotest.test_case "depth bound" `Quick test_complete_depth_bound;
          Alcotest.test_case "parent links" `Quick test_complete_parent_links ] );
      ( "b1",
        [ Alcotest.test_case "leaf count" `Quick test_b1_leaf_count;
          Alcotest.test_case "log depth" `Quick test_b1_depth_logarithmic;
          Alcotest.test_case "early leaves shallow" `Quick test_b1_early_leaves_shallow;
          QCheck_alcotest.to_alcotest prop_b1_depth ] );
      ( "propagate",
        [ Alcotest.test_case "reaches root" `Quick test_propagate_max_reaches_root;
          Alcotest.test_case "keeps maximum" `Quick test_propagate_keeps_maximum ] ) ]
