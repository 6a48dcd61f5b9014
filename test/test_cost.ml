(* The static-vs-dynamic differential for the step-complexity certifier
   (lib/lint/cost.ml, rule C1).

   For every budgeted operation, drive the real implementation solo over
   the Memsim simulator and check that the observed shared-memory step
   count never exceeds [Lint.Summary.envelope] of the operation's
   budgeted class — the concrete ceiling the certificate promises.  The structures of lib/structures run as their boxed
   compile: the same source the unboxed backend compiles natively (each
   metered entry is the body its plain op wraps).  A final coverage check pins that every
   budget row is either measured here or on an explicit skip list
   (Unbounded allowlist entries, internal helpers exercised inside a
   measured op), so a new budget row cannot silently dodge the
   differential; and metering is checked never to be a step. *)

let n = 8
let bound = 64

(* Worst observed solo step count over a list of operations. *)
let max_steps session thunks =
  List.fold_left
    (fun acc f ->
      Memsim.Session.reset_steps session;
      f ();
      max acc (Memsim.Session.direct_steps session))
    0 thunks

let values = [ 1; 3; 7; 20; 41; 63 ]

(* A structure of lib/structures' boxed compile, built in a fresh
   session. *)
let in_session build =
  let s = Memsim.Session.create () in
  (s, Boxed.Raw.with_memory (Smem.Sim_memory.bind s) build)

let live_metrics () = Obs.Metrics.create ~domains:n ()

(* ------------------------------------------------------------------ *)
(* Measurements: (op path, envelope size, observed max steps).  The
   envelope size is the parameter the budget class ranges over: the
   value bound for max registers and counters, the process count for
   snapshots and the tree primitives. *)

let maxreg_measurements impl prefix ~with_write =
  let s = Memsim.Session.create () in
  let inst = Harness.Instances.maxreg_sim s ~n ~bound impl in
  let w =
    max_steps s
      (List.map
         (fun v () -> inst.Maxreg.Max_register.write_max ~pid:(v mod n) v)
         values)
  in
  let r =
    max_steps s
      (List.map
         (fun _ () -> ignore (inst.Maxreg.Max_register.read_max ()))
         values)
  in
  (prefix @ [ "read_max" ], bound, r)
  :: (if with_write then [ (prefix @ [ "write_max" ], bound, w) ] else [])

let counter_measurements impl prefix =
  let s = Memsim.Session.create () in
  let inst = Harness.Instances.counter_sim s ~n ~bound impl in
  let incr =
    max_steps s
      (List.map
         (fun i () -> inst.Counters.Counter.increment ~pid:(i mod n))
         [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ])
  in
  let read =
    max_steps s
      (List.map (fun _ () -> ignore (inst.Counters.Counter.read ())) [ 1; 2 ])
  in
  [ (prefix @ [ "increment" ], bound, incr);
    (prefix @ [ "read" ], bound, read) ]

let snapshot_measurements impl prefix ~with_scan =
  let s = Memsim.Session.create () in
  let inst = Harness.Instances.snapshot_sim s ~n impl in
  let upd =
    max_steps s
      (List.map
         (fun v () -> inst.Snapshots.Snapshot.update ~pid:(v mod n) v)
         values)
  in
  let sc =
    max_steps s
      (List.map (fun _ () -> ignore (inst.Snapshots.Snapshot.scan ())) [ 1; 2 ])
  in
  (prefix @ [ "update" ], n, upd)
  :: (if with_scan then [ (prefix @ [ "scan" ], n, sc) ] else [])

let farray_measurements () =
  let module F = Boxed.Farray in
  let s, fa = in_session (F.create ~n ~combine:Memsim.Simval.max_val) in
  let upd =
    max_steps s
      (List.map
         (fun v () -> F.update fa ~leaf:(v mod n) (Memsim.Simval.Int v))
         values)
  in
  let rd = max_steps s [ (fun () -> ignore (F.read fa)) ] in
  let rl = max_steps s [ (fun () -> ignore (F.read_leaf fa 0)) ] in
  [ ([ "Farray"; "update" ], n, upd);
    ([ "Farray"; "read" ], n, rd);
    ([ "Farray"; "read_leaf" ], n, rl) ]

(* A complete tree of [n] Bot leaves with leaf 0 holding 5: the leaf
   and its parent. *)
let propagate_tree () =
  let _root, leaves =
    Treeprim.Tree_shape.complete
      ~mk:(fun () -> Boxed.Raw.make Memsim.Simval.Bot)
      ~nleaves:n ()
  in
  let leaf = leaves.(0) in
  Boxed.Raw.set leaf.Treeprim.Tree_shape.data (Memsim.Simval.Int 5);
  match leaf.Treeprim.Tree_shape.parent with
  | Some parent -> (leaf, parent)
  | None -> Alcotest.fail "complete tree of 8 leaves has no internal node"

let propagate_measurements () =
  let module P = Boxed.Propagate in
  let combine = Memsim.Simval.max_val in
  let s, (leaf, parent) = in_session propagate_tree in
  let refr =
    max_steps s [ (fun () -> ignore (P.refresh ~combine parent : bool)) ]
  in
  let prop =
    max_steps s
      [ (fun () -> ignore (P.propagate ~refreshes:2 ~combine leaf : int)) ]
  in
  [ ([ "Propagate"; "refresh" ], n, refr);
    ([ "Propagate"; "propagate" ], n, prop) ]

(* The CAS register's single attempt, which only the native fast path
   used to carry, on the boxed compile of the same source. *)
let fast_path_measurements () =
  let c_s, c = in_session Boxed.Cas_maxreg.create in
  let c_once =
    max_steps c_s
      (List.map
         (fun v () -> ignore (Boxed.Cas_maxreg.write_once c v : int))
         (values @ values))
  in
  [ ([ "Cas_maxreg"; "write_once" ], bound, c_once) ]

(* The dial family instantiates one construction at four dial points;
   the static rows certify the worst case over the dial (read Linear,
   update Log), so the row measurement takes the max over every dial —
   and a separate test below holds each dial point to its own tighter
   parametric budget. *)
let dial_point_measurements dial =
  let s = Memsim.Session.create () in
  let c = Harness.Instances.counter_dial_sim s ~n dial in
  let r = Harness.Instances.maxreg_dial_sim s ~n dial in
  let c_inc =
    max_steps s
      (List.map
         (fun i () -> c.Counters.Counter.increment ~pid:(i mod n))
         [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ])
  in
  let c_read =
    max_steps s
      (List.map (fun _ () -> ignore (c.Counters.Counter.read ())) [ 1; 2 ])
  in
  let m_write =
    max_steps s
      (List.map
         (fun v () -> r.Maxreg.Max_register.write_max ~pid:(v mod n) v)
         values)
  in
  let m_read =
    max_steps s
      (List.map (fun _ () -> ignore (r.Maxreg.Max_register.read_max ())) values)
  in
  (c_read, c_inc, m_read, m_write)

let dial_measurements () =
  let worst =
    List.map (fun d -> (d, dial_point_measurements d)) Treeprim.Dial.all
  in
  let max_of proj =
    List.fold_left (fun acc (_, m) -> max acc (proj m)) 0 worst
  in
  [ ([ "Dial_counter"; "read" ], n, max_of (fun (r, _, _, _) -> r));
    ([ "Dial_counter"; "increment" ], n, max_of (fun (_, i, _, _) -> i));
    ([ "Dial_maxreg"; "read_max" ], n, max_of (fun (_, _, r, _) -> r));
    ([ "Dial_maxreg"; "write_max" ], n, max_of (fun (_, _, _, w) -> w)) ]

let all_measurements () =
  List.concat
    [ maxreg_measurements Harness.Instances.Algorithm_a [ "Algorithm_a" ]
        ~with_write:true;
      maxreg_measurements Harness.Instances.Aac_maxreg [ "Aac_maxreg" ]
        ~with_write:true;
      maxreg_measurements Harness.Instances.B1_maxreg [ "B1_maxreg" ]
        ~with_write:true;
      (* the CAS write retry loop is the Unbounded allowlist entry *)
      maxreg_measurements Harness.Instances.Cas_maxreg [ "Cas_maxreg" ]
        ~with_write:false;
      counter_measurements Harness.Instances.Naive_counter
        [ "Naive_counter" ];
      counter_measurements Harness.Instances.Aac_counter [ "Aac_counter" ];
      counter_measurements Harness.Instances.Farray_counter
        [ "Farray_counter" ];
      (* the double-collect scan is the Unbounded allowlist entry *)
      snapshot_measurements Harness.Instances.Double_collect
        [ "Double_collect" ] ~with_scan:false;
      snapshot_measurements Harness.Instances.Afek [ "Afek_snapshot" ]
        ~with_scan:true;
      snapshot_measurements Harness.Instances.Farray_snapshot
        [ "Farray_snapshot" ] ~with_scan:true;
      farray_measurements ();
      propagate_measurements ();
      fast_path_measurements ();
      dial_measurements () ]

(* ------------------------------------------------------------------ *)

let qual op = String.concat "." op

let test_dynamic_within_envelope () =
  let measured = all_measurements () in
  Alcotest.(check bool) "measurements ran" true (List.length measured > 20);
  List.iter
    (fun (op, size, steps) ->
      match Lint.Budgets.find Lint.Budgets.default op with
      | None -> Alcotest.failf "measured op %s has no budget row" (qual op)
      | Some row -> (
          match Lint.Summary.envelope ~n:size row.Lint.Budgets.budget with
          | None ->
            Alcotest.failf "%s measured against an Unbounded budget" (qual op)
          | Some cap ->
            if steps > cap then
              Alcotest.failf
                "%s: %d dynamic steps exceed the static envelope %d (%s)"
                (qual op) steps cap
                (Lint.Summary.bound_to_string row.Lint.Budgets.budget)))
    measured

(* The per-dial refinement of the static worst-case rows: each dial
   point must sit inside the envelope of its OWN parametric budget
   (read: Const/Log/Sqrt/Linear as f grows; update: Log collapsing to
   Const at f = n), not just the family-wide one.  Quantifies over
   [Treeprim.Dial.all], so a new dial point is held to a budget the
   moment it exists. *)
let test_dial_parametric_envelope () =
  List.iter
    (fun dial ->
      let f = Treeprim.Dial.width ~n dial in
      let c_read, c_inc, m_read, m_write = dial_point_measurements dial in
      let check what steps budget =
        match Lint.Summary.envelope ~n budget with
        | None ->
          Alcotest.failf "dial %s %s: parametric budget is Unbounded"
            (Treeprim.Dial.name dial) what
        | Some cap ->
          if steps > cap then
            Alcotest.failf "dial %s %s: %d steps exceed parametric envelope %d (%s)"
              (Treeprim.Dial.name dial) what steps cap
              (Lint.Summary.bound_to_string budget)
      in
      let rb = Lint.Budgets.dial_read_budget ~f ~n in
      let ub = Lint.Budgets.dial_update_budget ~f ~n in
      check "counter read" c_read rb;
      check "counter increment" c_inc ub;
      check "maxreg read_max" m_read rb;
      check "maxreg write_max" m_write ub;
      (* the dial really dials: extreme points have the extreme classes *)
      match dial with
      | Treeprim.Dial.F_one ->
        Alcotest.(check string) "f1 read class" "const"
          (Lint.Summary.class_name rb)
      | Treeprim.Dial.F_n ->
        Alcotest.(check string) "fn update class" "const"
          (Lint.Summary.class_name ub)
      | _ -> ())
    Treeprim.Dial.all

(* The counting machinery itself: a naive-counter read really collects
   all n cells, so a differential observing 0 steps would be vacuous. *)
let test_counting_is_live () =
  let s = Memsim.Session.create () in
  let inst =
    Harness.Instances.counter_sim s ~n ~bound Harness.Instances.Naive_counter
  in
  List.iter
    (fun i -> inst.Counters.Counter.increment ~pid:(i mod n))
    [ 0; 1; 2 ];
  Memsim.Session.reset_steps s;
  ignore (inst.Counters.Counter.read ());
  Alcotest.(check bool) "naive read touches every cell" true
    (Memsim.Session.direct_steps s >= n)

(* Metering is never a step: every metered entry takes exactly the
   steps of its plain op, operation by operation from the same initial
   state, with a live handle and with [Obs.Metrics.disabled]. *)
let steps_of_each build ops =
  let s, x = in_session build in
  List.map
    (fun op ->
      Memsim.Session.reset_steps s;
      op x;
      Memsim.Session.direct_steps s)
    ops

let test_metering_is_not_a_step () =
  let same name build plain metered =
    let expected = steps_of_each build plain in
    List.iter
      (fun (handle, metrics) ->
        Alcotest.(check (list int))
          (Printf.sprintf "%s, %s handle" name handle)
          expected
          (steps_of_each build (metered metrics)))
      [ ("live", live_metrics ()); ("disabled", Obs.Metrics.disabled) ]
  in
  (* repeated values take the no-op and the helping branches *)
  let writes = values @ values @ [ 2; 2 ] in
  let pids = [ 0; 1; 2; 3; 4; 5; 6; 7; 0; 3 ] in
  let per xs f = List.map f xs in
  let module A = Boxed.Algorithm_a in
  same "Algorithm_a.write_max_metered" (A.create ~n)
    (per writes (fun v a -> A.write_max a ~pid:(v mod n) v))
    (fun metrics ->
      per writes (fun v a -> A.write_max_metered a ~metrics ~pid:(v mod n) v));
  let module C = Boxed.Cas_maxreg in
  same "Cas_maxreg.write_max_metered" C.create
    (per writes (fun v c -> C.write_max c ~pid:0 v))
    (fun metrics -> per writes (fun v c -> C.write_max_metered c ~metrics ~pid:0 v));
  let module F = Boxed.Farray_counter in
  same "Farray_counter.increment_metered" (F.create ~n)
    (per pids (fun pid f -> F.increment f ~pid))
    (fun metrics -> per pids (fun pid f -> F.increment_metered f ~metrics ~pid));
  List.iter
    (fun dial ->
      let at op = op ^ " " ^ Treeprim.Dial.name dial in
      let module D = Boxed.Dial_counter in
      same (at "Dial_counter.increment_metered") (D.create ~n ~dial)
        (per pids (fun pid d -> D.increment d ~pid))
        (fun metrics ->
          per pids (fun pid d -> D.increment_metered d ~metrics ~pid));
      let module R = Boxed.Dial_maxreg in
      same (at "Dial_maxreg.write_max_metered") (R.create ~n ~dial)
        (per writes (fun v r -> R.write_max r ~pid:(v mod n) v))
        (fun metrics ->
          per writes (fun v r ->
              R.write_max_metered r ~metrics ~pid:(v mod n) v)))
    Treeprim.Dial.all;
  let module Fa = Boxed.Farray in
  same "Farray.update_metered"
    (Fa.create ~n ~combine:Memsim.Simval.max_val)
    (per writes (fun v f -> Fa.update f ~leaf:(v mod n) (Memsim.Simval.Int v)))
    (fun metrics ->
      per writes (fun v f ->
          Fa.update_metered f ~metrics ~domain:(v mod n) ~leaf:(v mod n)
            (Memsim.Simval.Int v)));
  let module P = Boxed.Propagate in
  let combine = Memsim.Simval.max_val in
  let walk (leaf, _) = P.propagate ~refreshes:2 ~combine leaf in
  same "Propagate.record" propagate_tree
    [ (fun x -> ignore (walk x : int)) ]
    (fun metrics ->
      [ (fun x ->
          P.record ~metrics ~domain:0 ~refreshes:2 ~helped:false (fst x)
            (walk x)) ])

(* Every budget row is either measured above or explicitly skip-listed,
   so a new row cannot silently dodge the differential. *)
let skip_reason op (row : Lint.Budgets.row) =
  match row.budget with
  | Lint.Summary.Unbounded _ -> Some "reviewed Unbounded allowlist entry"
  | _ ->
    if
      op = [ "Double_collect"; "collect" ]
      || op = [ "Afek_snapshot"; "collect" ]
    then Some "internal helper, exercised inside the measured scan"
    else None

let test_coverage () =
  let measured = List.map (fun (op, _, _) -> op) (all_measurements ()) in
  List.iter
    (fun (row : Lint.Budgets.row) ->
      match skip_reason row.op row with
      | Some _ -> ()
      | None ->
        if not (List.mem row.op measured) then
          Alcotest.failf "budget row %s is neither measured nor skip-listed"
            (qual row.op))
    Lint.Budgets.default.rows

let () =
  Alcotest.run "cost-differential"
    [ ( "differential",
        [ Alcotest.test_case "dynamic <= static envelope" `Quick
            test_dynamic_within_envelope;
          Alcotest.test_case "every dial point within its parametric envelope"
            `Quick test_dial_parametric_envelope;
          Alcotest.test_case "counting is live" `Quick test_counting_is_live;
          Alcotest.test_case "metering is never a step" `Quick
            test_metering_is_not_a_step;
          Alcotest.test_case "every budget row covered" `Quick test_coverage
        ] ) ]
