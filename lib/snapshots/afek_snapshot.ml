(* The classic wait-free single-writer snapshot of Afek, Attiya, Dolev,
   Gafni, Merritt and Shavit (1993), from reads and writes.

   Each segment register holds (sequence number, value, embedded scan); an
   update embeds a fresh scan alongside its value.  A scanner repeatedly
   collects: two identical consecutive collects give a direct scan; a
   process observed moving twice performed a whole update inside the scan's
   interval, so its embedded scan can be borrowed.  At most N+1 collects,
   hence O(N^2) steps per operation (updates include a scan). *)

open Memsim
module Raw = Boxed.Raw

type seg = { seq : int; value : int; embedded : int array }

type t = { segs : Raw.t array; n : int }

let decode n v =
  match v with
  | Simval.Bot -> { seq = 0; value = 0; embedded = Array.make n 0 }
  | Simval.Vec [| Simval.Int seq; Simval.Int value; emb |] ->
    { seq; value; embedded = Simval.to_int_array emb }
  | Simval.Int _ | Simval.Vec _ -> invalid_arg "Afek_snapshot: bad segment"

let encode s =
  Simval.Vec
    [| Simval.Int s.seq; Simval.Int s.value; Simval.of_int_array s.embedded |]

let create ~n () =
  if n <= 0 then invalid_arg "Afek_snapshot.create: n must be > 0";
  { segs = Array.init n (fun _ -> Raw.make Raw.bot); n }

let collect t = Array.map (fun r -> decode t.n (Raw.get r)) t.segs

let same_collect a b =
  let n = Array.length a in
  let rec go i = i >= n || (a.(i).seq = b.(i).seq && go (i + 1)) in
  go 0

let scan t =
  let moved = Array.make t.n false in
  let rec loop previous =
    let current = collect t in
    if same_collect previous current then Array.map (fun s -> s.value) current
    else begin
      (* Find a process that moved; if it moved before during this scan,
         its latest update ran entirely inside our interval: borrow. *)
      let borrowed = ref None in
      for j = 0 to t.n - 1 do
        if !borrowed = None && previous.(j).seq <> current.(j).seq then
          if moved.(j) then borrowed := Some current.(j).embedded
          else moved.(j) <- true
      done;
      match !borrowed with
      | Some emb -> Array.copy emb
      | None -> loop current
    end
  in
  loop (collect t)

(* Set the caller's segment to [v], or to its value plus [v] if [add]:
   the read of the segment that gives the sequence number gives the
   single writer its own last value too. *)
let write_own t ~pid ~add v =
  if pid < 0 || pid >= t.n then invalid_arg "Afek_snapshot.update: bad pid";
  let embedded = scan t in
  let { seq; value; _ } = decode t.n (Raw.get t.segs.(pid)) in
  let value = if add then value + v else v in
  Raw.set t.segs.(pid) (encode { seq = seq + 1; value; embedded })

let update t ~pid v = write_own t ~pid ~add:false v
let add t ~pid d = write_own t ~pid ~add:true d
