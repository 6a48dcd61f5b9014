(* The unbounded max register of Aspnes-Attiya-Censor [2, Section 6], from
   reads and writes only: the bounded construction's switch recursion works
   over ANY binary partition of the value domain, so shaping the tree as a
   Bentley-Yao B1 tree over the unbounded domain gives WriteMax(v) and
   ReadMax in O(log v) / O(log vmax) steps with no bound fixed in advance.

   Structure: a right spine; spine node g partitions values into group g
   (a complete subtree over [2^g - 1, 2^(g+1) - 1), on the left) and
   everything larger (the rest of the spine, on the right).  WriteMax
   recurses into the half holding its value, setting the switch when it
   went right; ReadMax follows set switches.  Nodes are materialized
   lazily, so memory is proportional to the values actually written — but
   note the registers themselves are allocated on first touch, which in
   the simulator's accounting happens during the operation (allocation is
   not a step, matching the model where the full infinite tree exists in
   the initial configuration).

   Switches are 0/1 registers from [Raw.maker], unpadded: the hot
   switches are spread across lazily built spine and group nodes
   already.  The steady-state recursion over forced nodes moves
   immediate ints only in the unboxed compile. *)

type node =
  | Value                                  (* leaf: a single value *)
  | Split of { switch : Raw.t; lo : tree; hi : tree; pivot : int }
      (* values < pivot on [lo], >= pivot on [hi] *)

and tree = node Smem.Lazy_cell.t

(* The two switch values, built once: in the boxed compile every switch
   shares these boxes instead of allocating one when it is built and
   one on every write. *)
let off = Raw.of_int 0
let on = Raw.of_int 1

(* Domain-safe memoization: concurrent forcing may build a duplicate
   node, but exactly one wins the cell's CAS and the loser's registers
   are never touched again. *)
let lazy_tree = Smem.Lazy_cell.make
let force = Smem.Lazy_cell.force

(* Complete subtree over [lo, hi). *)
let rec complete ~mk lo hi =
  lazy_tree (fun () ->
      if hi - lo <= 1 then Value
      else
        let mid = (lo + hi + 1) / 2 in
        Split
          { switch = mk off;
            lo = complete ~mk lo mid;
            hi = complete ~mk mid hi;
            pivot = mid })

(* Spine node g: group g = [2^g - 1, 2^(g+1) - 1) on the left, the rest
   of the spine on the right. *)
let rec spine ~mk g =
  lazy_tree (fun () ->
      let start = (1 lsl g) - 1 in
      let stop = (1 lsl (g + 1)) - 1 in
      Split
        { switch = mk off;
          lo = complete ~mk start stop;
          hi = spine ~mk (g + 1);
          pivot = stop })

type t = { root : tree }

let create () = { root = spine ~mk:(Raw.maker ()) 0 }

let switch_set switch = Raw.to_int (Raw.get switch) = 1

(* The recursion of the bounded AAC register, over the lazy tree. *)
let rec write tree ~base v =
  match force tree with
  | Value -> ()
  | Split { switch; lo; hi; pivot } ->
    if v >= pivot then begin
      write hi ~base:pivot v;
      Raw.set switch on
    end
    else if not (switch_set switch) then write lo ~base v

let rec read tree ~base =
  match force tree with
  | Value -> base
  | Split { switch; lo; hi; pivot } ->
    if switch_set switch then read hi ~base:pivot else read lo ~base

let write_max t ~pid v =
  ignore pid;
  if v < 0 then invalid_arg "B1_maxreg.write_max: negative value";
  write t.root ~base:0 v

let read_max t = read t.root ~base:0
