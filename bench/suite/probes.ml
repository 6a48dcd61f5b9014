module P = Subjects.Probe

let ns_per_op ~seconds ?(domains = 1) make =
  let op = make () in
  let rates = Array.init 3 (fun _ -> Subjects.run_batched ~domains ~seconds op) in
  1e9 *. float_of_int domains /. Stats.median rates

let compute ~seconds =
  let time ?domains make = ns_per_op ~seconds ?domains make in
  let floor = time P.empty in
  let floor_2d = time ~domains:2 P.empty in
  let net make = time make -. floor in
  let read = net P.smem_read
  and write = net P.smem_write
  and cas = net P.smem_cas in
  let cas_shared = time ~domains:2 P.smem_cas_shared -. floor_2d in
  (* The ladder: the share of a measured operation that its step counts
     priced at the primitives' costs do not explain. *)
  let structure make op =
    let ns = net make in
    let s : P.steps = P.steps op in
    let predicted = (s.reads *. read) +. (s.writes *. write) +. (s.cas *. cas) in
    (ns, s, 100. *. (ns -. predicted) /. ns)
  in
  let ar, ars, arr = structure P.alg_a_read `Alg_a_read in
  let au, aus, aur = structure P.alg_a_update `Alg_a_update in
  let fr, frs, frr = structure P.farray_read `Farray_read in
  let fu, fus, fur = structure P.farray_update `Farray_update in
  let total (s : P.steps) = s.reads +. s.writes +. s.cas in
  [ ("harness.floor_ns", floor);
    ("harness.floor_ns_2d", floor_2d);
    ("smem.read_ns", read);
    ("smem.write_ns", write);
    ("smem.cas_ns", cas);
    ("smem.cas_ns_2d_shared", cas_shared);
    ("steps.alg_a.read", total ars);
    ("steps.alg_a.update", total aus);
    ("steps.alg_a.update.cas", aus.cas);
    ("steps.farray.read", total frs);
    ("steps.farray.update", total fus);
    ("steps.farray.update.cas", fus.cas);
    ("alg_a.read_ns", ar);
    ("alg_a.update_ns", au);
    ("farray.read_ns", fr);
    ("farray.update_ns", fu);
    ("ladder.alg_a.read.residual_pct", arr);
    ("ladder.alg_a.update.residual_pct", aur);
    ("ladder.farray.read.residual_pct", frr);
    ("ladder.farray.update.residual_pct", fur);
    ("obs.disabled_overhead_ns", net P.alg_a_update_disabled -. au) ]

let memo = ref None

let measure ~seconds =
  match !memo with
  | Some m -> m
  | None ->
    let m = compute ~seconds in
    memo := Some m;
    m
