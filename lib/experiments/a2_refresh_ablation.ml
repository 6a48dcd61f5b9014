(* A2 — ablating the double refresh of Propagate.

   Design choice under test: the paper performs the child-combine + CAS
   *twice* per node ("This ensures that if the CAS failed, then a CAS by
   another process must have succeeded in updating the parent node based on
   the new value").  With a single refresh, a failed CAS can leave a
   concurrent update unpropagated forever.

   We verify by exhaustive search: every interleaving of two f-array
   counter increments is executed, and final counts are tallied.  With
   refreshes = 2 every interleaving ends at 2; with refreshes = 1 a
   measurable fraction of interleavings loses an increment. *)

open Memsim

type row = {
  refreshes : int;
  interleavings : int;
  lost_updates : int;
}

let count_lost ~refreshes =
  let session = Session.create () in
  let module F = Boxed.Farray in
  let sum a b =
    Simval.Int (Simval.int_or ~default:0 a + Simval.int_or ~default:0 b)
  in
  let t =
    Boxed.Raw.with_memory (Smem.Sim_memory.bind session) (fun () ->
        F.create ~refreshes ~n:2 ~combine:sum ())
  in
  let make_body pid () =
    let c = Simval.int_or ~default:0 (F.read_leaf t pid) in
    F.update t ~leaf:pid (Simval.Int (c + 1))
  in
  let counts = Explore.solo_counts session ~n:2 ~make_body in
  let interleavings = ref 0 in
  let lost = ref 0 in
  let stats =
    Explore.run_interleavings session ~make_body ~counts
      ~on_complete:(fun _ ->
        incr interleavings;
        if Simval.int_or ~default:0 (F.read t) <> 2 then incr lost;
        true)
      ()
  in
  assert (not stats.Explore.truncated);
  { refreshes; interleavings = !interleavings; lost_updates = !lost }

let sweep () = [ count_lost ~refreshes:2; count_lost ~refreshes:1 ]

let table rows =
  Harness.Tables.render
    ~title:
      "A2: ablation — double vs single refresh in Propagate, exhaustive \
       over ALL interleavings of two concurrent f-array increments"
    ~header:[ "refreshes/node"; "interleavings"; "lost updates" ]
    (List.map
       (fun r ->
         [ string_of_int r.refreshes; string_of_int r.interleavings;
           string_of_int r.lost_updates ])
       rows)

let run () = table (sweep ())
