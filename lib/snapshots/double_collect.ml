(* The textbook double-collect snapshot: each segment is a register holding
   (sequence number, value); a scan repeatedly collects all segments and
   returns when two consecutive collects are identical.

   Obstruction-free but not wait-free: a scan concurrent with an unbounded
   stream of updates may never terminate (bounded here by [max_collects] to
   keep adversarial experiments finite).  Update is O(1); an uncontended
   scan is O(N). *)

open Memsim
module Raw = Boxed.Raw

type t = { segs : Raw.t array; n : int; max_collects : int }

exception Starved

let seg_value v =
  match v with
  | Simval.Bot -> (0, 0)
  | Simval.Vec [| Simval.Int seq; Simval.Int x |] -> (seq, x)
  | Simval.Int _ | Simval.Vec _ -> invalid_arg "Double_collect: bad segment"

let create ?(max_collects = 1_000_000) ~n () =
  if n <= 0 then invalid_arg "Double_collect.create: n must be > 0";
  { segs = Array.init n (fun _ -> Raw.make Raw.bot); n; max_collects }

(* Set the caller's segment to [v], or to its value plus [v] if [add]:
   one read of the segment (its sequence number and, for the single
   writer, its own last value) and one write. *)
let write_own t ~pid ~add v =
  if pid < 0 || pid >= t.n then invalid_arg "Double_collect.update: bad pid";
  let seq, x = seg_value (Raw.get t.segs.(pid)) in
  let v = if add then x + v else v in
  Raw.set t.segs.(pid) (Simval.Vec [| Simval.Int (seq + 1); Simval.Int v |])

let update t ~pid v = write_own t ~pid ~add:false v
let add t ~pid d = write_own t ~pid ~add:true d

let collect t = Array.map (fun seg -> seg_value (Raw.get seg)) t.segs

let scan t =
  let rec loop previous tries =
    if tries > t.max_collects then raise Starved;
    let current = collect t in
    if current = previous then Array.map snd current
    else loop current (tries + 1)
  in
  let first = collect t in
  loop first 1
