(* Awareness and familiarity sets (Definitions 2-4).

   Information flows through visible write/CAS events:

   - a read or CAS by [p] on [o] makes [p] aware of every process the
     object is familiar with (Def. 2 clause 1, closed transitively by
     clause 2);
   - a *visible* write or CAS by [r] on [o] makes [o] familiar with every
     process [r] is aware of at that point, including [r] itself (Def. 4);
     familiarity accumulates: later overwrites do not shrink F(o).

   A single forward pass computes AW(p) and F(o) after every prefix; since
   the sets only grow, M(E) = max(|AW|,|F|) is maintained as a running
   maximum.  Visibility is precomputed on the complete execution
   (Definition 1 looks ahead). *)

open Memsim
module Int_set = Set.Make (Int)

type t = {
  aw : (int, Int_set.t) Hashtbl.t;  (* pid -> awareness set *)
  fam : (int, Int_set.t) Hashtbl.t; (* obj -> familiarity set *)
  m_prefix : int array;             (* m_prefix.(k) = M after first k events *)
}

let aw_of t pid =
  match Hashtbl.find_opt t.aw pid with
  | Some s -> s
  | None -> Int_set.singleton pid (* a silent process is aware only of itself *)

let fam_of t obj =
  match Hashtbl.find_opt t.fam obj with Some s -> s | None -> Int_set.empty

let m_after t k = t.m_prefix.(k)

let compute ?(literal = false) ?visible (events : Event.t array) : t =
  let visible =
    match visible with
    | Some v -> v
    | None -> Visibility.compute ~literal events
  in
  let n = Array.length events in
  let aw = Hashtbl.create 64 in
  let fam = Hashtbl.create 64 in
  let m_prefix = Array.make (n + 1) 1 in
  let get_aw pid =
    match Hashtbl.find_opt aw pid with
    | Some s -> s
    | None -> Int_set.singleton pid
  in
  let get_fam obj =
    match Hashtbl.find_opt fam obj with Some s -> s | None -> Int_set.empty
  in
  let m = ref 1 in
  for i = 0 to n - 1 do
    let e = events.(i) in
    let pid = e.Event.pid and obj = e.Event.obj in
    (* Awareness gain: reads and CAS observe the object (a CAS's boolean
       response reveals its value, so both branches count). *)
    (match e.Event.prim with
     | Event.Read | Event.Cas _ ->
       let aw' = Int_set.union (get_aw pid) (get_fam obj) in
       Hashtbl.replace aw pid aw';
       m := max !m (Int_set.cardinal aw')
     | Event.Write _ -> ());
    (* Familiarity gain: only visible writes/CAS contribute, with the
       issuer's awareness *after* this event (Def. 4 uses AW(r, E1 e)). *)
    (match e.Event.prim with
     | Event.Write _ | Event.Cas _ when visible.(i) ->
       let fam' = Int_set.union (get_fam obj) (get_aw pid) in
       Hashtbl.replace fam obj fam';
       m := max !m (Int_set.cardinal fam')
     | Event.Write _ | Event.Cas _ | Event.Read -> ());
    m_prefix.(i + 1) <- !m
  done;
  { aw; fam; m_prefix }

let of_trace ?literal ?visible trace =
  compute ?literal ?visible (Trace.events trace)

(* Def. 5: p is hidden after E iff no other process is aware of p. *)
let is_hidden t ~pids ~pid =
  List.for_all
    (fun q -> q = pid || not (Int_set.mem pid (aw_of t q)))
    pids

(* Def. 5 (second half): every object is familiar with at most one process
   of [set]. *)
let each_object_familiar_with_at_most_one t ~objs ~set =
  let set' = Int_set.of_list set in
  List.for_all
    (fun o -> Int_set.cardinal (Int_set.inter (fam_of t o) set') <= 1)
    objs
