(* 2-component max arrays: two max registers (a, b) whose MaxScan reads
   both ATOMICALLY — the building block of the restricted-use snapshot of
   Aspnes et al. [3].

   Two independent max registers do not work: concurrent scans can
   disagree on the order of updates to different components (a new-old
   inversion), and since max-register state is monotone every pair of
   scans must be comparable.  The object genuinely requires coordination.

   The polylogarithmic worst-case read/write-only construction of
   Aspnes-Attiya-Censor (JACM 2012) threads component b through the switch
   tree of component a with careful migration; reconstructing it
   faithfully is beyond this reproduction's scope — a naive "migrate b on
   switch flip" reconstruction is NOT linearizable: a slow scan on the
   abandoned half can observe a b-value that a later scan on the new half
   misses.  (We know, because our checker rejected it.)  Three
   correct-by-construction implementations bracket the complexity point:

   - {!From_registers}: two bounded max registers, with MaxScan
     double-collecting b around the a-read.  Reads and writes only; sound
     because max registers are MONOTONE: equal b-collects imply b was
     constant across the whole window, so the pair (a, b) is the object's
     exact state at the instant a was read.  Scans retry once per
     concurrent b-change — bounded by b's value bound, which is the
     restricted-use regime this whole object family lives in.  Solo costs
     are O(log bound) per operation; worst case amortizes over the bounded
     update budget rather than being polylog per scan like [2]'s.

   - {!From_snapshot}: from the Afek et al. wait-free snapshot, reads and
     writes only; O(N^2) steps per operation but worst-case wait-free.

   - {!From_farray}: from a Jayanti f-array with componentwise-max
     aggregation (read/write/CAS): MaxScan is a single read of the root,
     MaxUpdate is O(log N).  It is {!Max_vector} at two
     components.

   All three keep their state in {!Boxed.Raw} cells: build one inside
   {!Boxed.Raw.with_memory}.  All are validated against {!Linearize.Spec.Max_array} by exhaustive
   interleaving enumeration and random-schedule sweeps
   (test_max_array.ml). *)

module type S = sig
  type t

  val create : n:int -> unit -> t
  val max_update0 : t -> pid:int -> int -> unit
  val max_update1 : t -> pid:int -> int -> unit
  val max_scan : t -> int * int
end

(* A closed instance for harnesses. *)
type instance = {
  update0 : pid:int -> int -> unit;
  update1 : pid:int -> int -> unit;
  scan : unit -> int * int;
}

let instantiate (type a) (module I : S with type t = a) (m : a) =
  { update0 = (fun ~pid v -> I.max_update0 m ~pid v);
    update1 = (fun ~pid v -> I.max_update1 m ~pid v);
    scan = (fun () -> I.max_scan m) }

module From_registers = struct
  module R = Boxed.Aac_maxreg

  type t = { a : R.t; b : R.t; max_collects : int }

  let create_bounded ?(max_collects = 1_000_000) ~bound0 ~bound1 () =
    { a = R.create ~bound:bound0 ();
      b = R.create ~bound:bound1 ();
      max_collects }

  (* [create ~n] exists for interface uniformity; restricted use means any
     polynomial bound works — pick one comfortably above the values the
     harnesses use. *)
  let create ~n () =
    let bound = max 128 (4 * n * n) in
    create_bounded ~bound0:bound ~bound1:bound ()

  let max_update0 t ~pid v = R.write_max t.a ~pid v
  let max_update1 t ~pid w = R.write_max t.b ~pid w

  exception Starved

  (* Double-collect b around the a-read: b is monotone, so b1 = b2 means b
     held that value for the whole window and (a, b1) is the exact state
     at the moment a was read. *)
  let max_scan t =
    let rec loop b1 tries =
      if tries > t.max_collects then raise Starved;
      let a = R.read_max t.a in
      let b2 = R.read_max t.b in
      if b1 = b2 then (a, b1) else loop b2 (tries + 1)
    in
    loop (R.read_max t.b) 1
end

module From_snapshot = struct
  module S = Snapshots.Afek_snapshot

  (* snapshot over 2n segments: segment 2p announces p's a-maximum,
     segment 2p+1 its b-maximum; local.(i) caches the single-writer
     segment values (process-local state). *)
  type t = { snap : S.t; local : int array; n : int }

  let create ~n () =
    if n <= 0 then invalid_arg "Max_array.create: n must be > 0";
    { snap = S.create ~n:(2 * n) (); local = Array.make (2 * n) 0; n }

  let announce t ~segment v =
    if v > t.local.(segment) then begin
      t.local.(segment) <- v;
      S.update t.snap ~pid:segment v
    end

  let max_update0 t ~pid v =
    if pid < 0 || pid >= t.n then invalid_arg "Max_array.max_update0: bad pid";
    if v < 0 then invalid_arg "Max_array.max_update0: negative value";
    announce t ~segment:(2 * pid) v

  let max_update1 t ~pid w =
    if pid < 0 || pid >= t.n then invalid_arg "Max_array.max_update1: bad pid";
    if w < 0 then invalid_arg "Max_array.max_update1: negative value";
    announce t ~segment:((2 * pid) + 1) w

  let max_scan t =
    let view = S.scan t.snap in
    let a = ref 0 and b = ref 0 in
    Array.iteri
      (fun i v -> if i mod 2 = 0 then a := max !a v else b := max !b v)
      view;
    (!a, !b)
end

module From_farray = struct
  type t = Max_vector.t

  let create ~n () = Max_vector.create ~n ~m:2 ()
  let max_update0 t ~pid v = Max_vector.max_update t ~pid ~component:0 v
  let max_update1 t ~pid w = Max_vector.max_update t ~pid ~component:1 w

  let max_scan t =
    let v = Max_vector.max_scan t in
    (v.(0), v.(1))
end
