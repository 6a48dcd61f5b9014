(* Frontier — Theorem 1's read/update frontier, walked by the tradeoff
   dial ([Dial_counter] at every dial point), in two tables.

   Steps (exact): each dial's boxed counter over a Memsim session, its
   solo shared-memory steps read off {!Memsim.Session.direct_steps} — a
   read collects f block roots, an increment propagates inside one
   block in O(log(N/f)).  The certified envelope printed beside them
   comes from the caller: the lint library knows the budgets, this
   module only measures.

   Throughput (timed): each dial's unboxed counter from the registry,
   driven by E7's loop and timing ({!E7_native.counter_op},
   {!E7_native.time}) across read shares, on one domain and on E7's
   domain count.  Read-heavy mixes should favour small f, update-heavy
   ones large f, with the winner sliding in the read share. *)

let n = 64

type step_row = {
  dial : Treeprim.Dial.t;
  f : int;
  read_steps : int;
  inc_steps : int;
}

let steps_rows () =
  List.map
    (fun dial ->
      let session = Memsim.Session.create () in
      let c = Harness.Instances.counter_dial_sim session ~n dial in
      (* warm the structure so the steps measured are steady-state *)
      c.Counters.Counter.increment ~pid:0;
      let steps f =
        Memsim.Session.reset_steps session;
        f ();
        Memsim.Session.direct_steps session
      in
      let read_steps = steps (fun () -> ignore (c.read () : int)) in
      (* the tail block may be shallower: take the slowest pid *)
      let inc_steps =
        List.fold_left max 0
          (List.init n (fun pid -> steps (fun () -> c.increment ~pid)))
      in
      { dial; f = Treeprim.Dial.width ~n dial; read_steps; inc_steps })
    Treeprim.Dial.all

let steps_table ~envelope rows =
  Harness.Tables.render
    ~title:(Printf.sprintf "Frontier: solo steps, N = %d (Memsim, exact)" n)
    ~header:[ "dial"; "f"; "read steps"; "inc steps"; "read env"; "inc env" ]
    (List.map
       (fun r ->
         let re, ie = envelope ~n r.dial in
         Treeprim.Dial.name r.dial
         :: List.map string_of_int [ r.f; r.read_steps; r.inc_steps; re; ie ])
       rows)

let read_shares = [ 0; 50; 90; 99 ]

let throughput_table ~seconds ~trials =
  let multi = Harness.Throughput.recommended_domains ~floor:2 ~cap:4 () in
  let recommended = Harness.Throughput.recommended_domains () in
  let row domains read_pct =
    let rates =
      List.map
        (fun dial ->
          let c =
            Option.get
              (Harness.Instances.counter_unboxed ~n (Harness.Instances.Dial dial))
          in
          ( dial,
            E7_native.time ~domains ~seconds ~trials
              (E7_native.counter_op c ~read_pct) ))
        Treeprim.Dial.all
    in
    let winner, _ =
      List.fold_left
        (fun (w, best) (d, r) -> if r > best then (d, r) else (w, best))
        (List.hd rates) rates
    in
    [ (string_of_int domains ^ if domains > recommended then "*" else "");
      Printf.sprintf "%d%%" read_pct ]
    @ List.map (fun (_, r) -> Printf.sprintf "%.2f" r) rates
    @ [ Treeprim.Dial.name winner ]
  in
  Harness.Tables.render
    ~title:
      (Printf.sprintf
         "Frontier: throughput per dial point (unboxed, N = %d, Mops/s, \
          median of %d trial%s of %gs; * = more domains than the host \
          recommends)"
         n trials
         (if trials = 1 then "" else "s")
         seconds)
    ~header:
      ([ "domains"; "read share" ]
      @ List.map Treeprim.Dial.name Treeprim.Dial.all
      @ [ "winner" ])
    (List.concat_map
       (fun domains -> List.map (row domains) read_shares)
       [ 1; multi ])

let run ~envelope ~seconds ~trials () =
  steps_table ~envelope (steps_rows ())
  ^ "\n"
  ^ throughput_table ~seconds ~trials
