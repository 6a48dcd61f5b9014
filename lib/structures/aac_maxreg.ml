(* The Aspnes-Attiya-Censor bounded max register [2], built from reads and
   writes only: a tournament tree of "switch" bits over the value range.

   An M-bounded register (values 0..M-1) is a switch plus an (M/2)-bounded
   left half (values below the split) and an (M - M/2)-bounded right half
   (values at or above it).  WriteMax descends right and raises the switch,
   or descends left only while the switch is still unset; ReadMax follows
   switches down.  Both operations take O(log M) steps — the read-side
   contrast to Algorithm A's O(1).

   The whole tree is built by [create] (B1_maxreg is the lazily built,
   unbounded variant).  Switches are 0/1 registers from [Raw.maker],
   unpadded: a padded register per switch would cost two cache lines
   per value of the bound in the unboxed compile. *)

type tree =
  | Leaf  (* 1-bounded register: always holds 0 *)
  | Node of { switch : Raw.t; half : int; left : tree; right : tree }

type t = { root : tree; bound : int }

(* The two switch values, built once: in the boxed compile every switch
   shares these boxes instead of allocating one when it is built and
   one on every write. *)
let off = Raw.of_int 0
let on = Raw.of_int 1

let rec make_tree ~mk bound =
  if bound <= 1 then Leaf
  else
    let half = (bound + 1) / 2 in
    Node
      { switch = mk off;
        half;
        left = make_tree ~mk half;
        right = make_tree ~mk (bound - half) }

let create ~bound () =
  if bound <= 0 then invalid_arg "Aac_maxreg.create: bound must be > 0";
  { root = make_tree ~mk:(Raw.maker ()) bound; bound }

let switch_set switch = Raw.to_int (Raw.get switch) = 1

let rec read = function
  | Leaf -> 0
  | Node { switch; half; left; right } ->
    if switch_set switch then half + read right else read left

let rec write tree value =
  match tree with
  | Leaf -> () (* value must be 0 here; nothing to store *)
  | Node { switch; half; left; right } ->
    if value >= half then begin
      write right (value - half);
      Raw.set switch on
    end
    else if not (switch_set switch) then write left value

let read_max t = read t.root

let write_max t ~pid value =
  ignore pid;
  if value < 0 || value >= t.bound then
    invalid_arg "Aac_maxreg.write_max: value outside [0, bound)";
  write t.root value
