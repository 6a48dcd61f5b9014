(* Tests for the history extraction and the Wing-Gong checker itself:
   hand-built histories with known verdicts, pending-operation handling,
   and the specs. *)

open Memsim

(* Build a trace containing only annotations, from a script of
   (pid, `Invoke (op, arg) | `Return (op, result)) entries. *)
let trace_of_script script =
  let b = Trace.builder () in
  List.iter
    (fun (pid, action) ->
      match action with
      | `Invoke (op, arg) -> Trace.add_invoke b ~pid ~op ~arg
      | `Return (op, result) -> Trace.add_return b ~pid ~op ~result)
    script;
  Trace.finish b

let check_max spec_n trace =
  Linearize.Checker.check_trace (module Linearize.Spec.Max_register) ~n:spec_n trace

let i v = Simval.Int v

(* {1 History extraction} *)

let test_history_extraction () =
  let trace =
    trace_of_script
      [ (0, `Invoke ("write_max", i 5));
        (1, `Invoke ("read_max", Simval.Bot));
        (0, `Return ("write_max", Simval.Bot));
        (1, `Return ("read_max", i 5)) ]
  in
  let ops = Linearize.History.of_trace trace in
  Alcotest.(check int) "two ops" 2 (Array.length ops);
  Alcotest.(check bool) "none pending" true
    (Array.for_all (fun o -> not (Linearize.History.is_pending o)) ops)

let test_history_pending () =
  let trace = trace_of_script [ (0, `Invoke ("write_max", i 5)) ] in
  let ops = Linearize.History.of_trace trace in
  Alcotest.(check int) "one op" 1 (Array.length ops);
  Alcotest.(check bool) "pending" true (Linearize.History.is_pending ops.(0))

(* {1 Checker verdicts on crafted histories} *)

let test_sequential_legal () =
  let trace =
    trace_of_script
      [ (0, `Invoke ("write_max", i 5));
        (0, `Return ("write_max", Simval.Bot));
        (0, `Invoke ("read_max", Simval.Bot));
        (0, `Return ("read_max", i 5)) ]
  in
  Alcotest.(check bool) "legal" true (check_max 2 trace)

let test_sequential_illegal () =
  let trace =
    trace_of_script
      [ (0, `Invoke ("write_max", i 5));
        (0, `Return ("write_max", Simval.Bot));
        (0, `Invoke ("read_max", Simval.Bot));
        (0, `Return ("read_max", i 3)) ]
  in
  Alcotest.(check bool) "illegal: stale read" false (check_max 2 trace)

(* Concurrent write may or may not be seen — both read results legal. *)
let test_concurrent_flexibility () =
  let with_read r =
    trace_of_script
      [ (0, `Invoke ("write_max", i 7));
        (1, `Invoke ("read_max", Simval.Bot));
        (1, `Return ("read_max", i r));
        (0, `Return ("write_max", Simval.Bot)) ]
  in
  Alcotest.(check bool) "read 0 legal" true (check_max 2 (with_read 0));
  Alcotest.(check bool) "read 7 legal" true (check_max 2 (with_read 7));
  Alcotest.(check bool) "read 3 illegal" false (check_max 2 (with_read 3))

(* Real-time order must be respected: a read that *follows* a completed
   write must see it. *)
let test_real_time_order () =
  let trace =
    trace_of_script
      [ (0, `Invoke ("write_max", i 7));
        (0, `Return ("write_max", Simval.Bot));
        (1, `Invoke ("read_max", Simval.Bot));
        (1, `Return ("read_max", i 0)) ]
  in
  Alcotest.(check bool) "missed completed write" false (check_max 2 trace)

(* A pending write may take effect... *)
let test_pending_write_may_apply () =
  let trace =
    trace_of_script
      [ (0, `Invoke ("write_max", i 9));
        (1, `Invoke ("read_max", Simval.Bot));
        (1, `Return ("read_max", i 9)) ]
  in
  Alcotest.(check bool) "pending effect visible" true (check_max 2 trace)

(* ...or not. *)
let test_pending_write_may_not_apply () =
  let trace =
    trace_of_script
      [ (0, `Invoke ("write_max", i 9));
        (1, `Invoke ("read_max", Simval.Bot));
        (1, `Return ("read_max", i 0)) ]
  in
  Alcotest.(check bool) "pending effect invisible" true (check_max 2 trace)

(* Non-monotone reads cannot be linearized. *)
let test_non_monotone_reads () =
  let trace =
    trace_of_script
      [ (0, `Invoke ("write_max", i 5));
        (0, `Return ("write_max", Simval.Bot));
        (1, `Invoke ("read_max", Simval.Bot));
        (1, `Return ("read_max", i 5));
        (1, `Invoke ("read_max", Simval.Bot));
        (1, `Return ("read_max", i 0)) ]
  in
  Alcotest.(check bool) "max register went backwards" false (check_max 2 trace)

(* {1 Counter spec} *)

let check_counter n trace =
  Linearize.Checker.check_trace (module Linearize.Spec.Counter) ~n trace

let test_counter_spec () =
  let good =
    trace_of_script
      [ (0, `Invoke ("increment", Simval.Bot));
        (1, `Invoke ("increment", Simval.Bot));
        (0, `Return ("increment", Simval.Bot));
        (1, `Return ("increment", Simval.Bot));
        (2, `Invoke ("read", Simval.Bot));
        (2, `Return ("read", i 2)) ]
  in
  Alcotest.(check bool) "two increments read 2" true (check_counter 3 good);
  let bad =
    trace_of_script
      [ (0, `Invoke ("increment", Simval.Bot));
        (0, `Return ("increment", Simval.Bot));
        (2, `Invoke ("read", Simval.Bot));
        (2, `Return ("read", i 0)) ]
  in
  Alcotest.(check bool) "lost increment" false (check_counter 3 bad)

(* {1 Snapshot spec} *)

let check_snapshot n trace =
  Linearize.Checker.check_trace (module Linearize.Spec.Snapshot) ~n trace

let test_snapshot_spec () =
  let scan_result l = Simval.of_int_array (Array.of_list l) in
  let good =
    trace_of_script
      [ (0, `Invoke ("update", i 4));
        (0, `Return ("update", Simval.Bot));
        (1, `Invoke ("scan", Simval.Bot));
        (1, `Return ("scan", scan_result [ 4; 0 ])) ]
  in
  Alcotest.(check bool) "scan sees update" true (check_snapshot 2 good);
  let bad =
    trace_of_script
      [ (0, `Invoke ("update", i 4));
        (0, `Return ("update", Simval.Bot));
        (1, `Invoke ("scan", Simval.Bot));
        (1, `Return ("scan", scan_result [ 0; 0 ])) ]
  in
  Alcotest.(check bool) "scan misses completed update" false (check_snapshot 2 bad);
  let added result =
    trace_of_script
      [ (0, `Invoke ("update", i 4));
        (0, `Return ("update", Simval.Bot));
        (0, `Invoke ("add", i 3));
        (0, `Return ("add", Simval.Bot));
        (1, `Invoke ("scan", Simval.Bot));
        (1, `Return ("scan", scan_result result)) ]
  in
  Alcotest.(check bool) "scan sees the add" true (check_snapshot 2 (added [ 7; 0 ]));
  Alcotest.(check bool) "scan misses the add" false
    (check_snapshot 2 (added [ 4; 0 ]))

(* The snapshot's new-old inversion: two scans disagreeing on the order of
   concurrent updates is not linearizable. *)
let test_snapshot_new_old_inversion () =
  let scan_result l = Simval.of_int_array (Array.of_list l) in
  let trace =
    trace_of_script
      [ (0, `Invoke ("update", i 1));
        (1, `Invoke ("update", i 2));
        (2, `Invoke ("scan", Simval.Bot));
        (2, `Return ("scan", scan_result [ 1; 0; 0 ]));
        (3, `Invoke ("scan", Simval.Bot));
        (3, `Return ("scan", scan_result [ 0; 2; 0 ]));
        (0, `Return ("update", Simval.Bot));
        (1, `Return ("update", Simval.Bot)) ]
  in
  (* scan2 saw u0 but not u1; the later scan3 saw u1 but NOT u0: inversion *)
  Alcotest.(check bool) "new-old inversion rejected" false
    (check_snapshot 4 trace)

(* {1 Checker vs brute force on random histories} *)

(* A tiny brute-force reference: try all permutations (histories are kept
   very small). *)
let brute_force_max n (ops : Linearize.History.op array) =
  let m = Array.length ops in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l
  in
  let indices = List.init m Fun.id in
  let respects_real_time order =
    let pos = Array.make m 0 in
    List.iteri (fun idx j -> pos.(j) <- idx) order;
    Array.for_all Fun.id
      (Array.mapi
         (fun a opa ->
           Array.for_all Fun.id
             (Array.mapi
                (fun b opb ->
                  match opa.Linearize.History.return with
                  | Some r when r < opb.Linearize.History.invoke ->
                    pos.(a) < pos.(b)
                  | Some _ | None -> true)
                ops))
         ops)
  in
  let legal order =
    let state = ref 0 in
    List.for_all
      (fun j ->
        let op = ops.(j) in
        match op.Linearize.History.name with
        | "write_max" ->
          state := max !state (Simval.int_exn op.arg);
          true
        | "read_max" -> (
          match op.result with
          | None -> true
          | Some r -> Simval.equal r (Simval.Int !state))
        | _ -> false)
      order
  in
  ignore n;
  List.exists
    (fun order -> respects_real_time order && legal order)
    (permutations indices)

let prop_checker_matches_brute_force =
  QCheck.Test.make ~name:"checker = brute force on random max histories"
    ~count:300
    QCheck.(small_int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      (* random complete history of <= 5 ops over 2 processes *)
      let b = Trace.builder () in
      let per_pid_open = Array.make 2 None in
      let time = ref 0 in
      let actions = 4 + Random.State.int rng 4 in
      for _ = 1 to actions do
        incr time;
        let pid = Random.State.int rng 2 in
        match per_pid_open.(pid) with
        | None ->
          let is_write = Random.State.bool rng in
          let op = if is_write then "write_max" else "read_max" in
          let arg =
            if is_write then Simval.Int (Random.State.int rng 4) else Simval.Bot
          in
          Trace.add_invoke b ~pid ~op ~arg;
          per_pid_open.(pid) <- Some op
        | Some op ->
          let result =
            if op = "write_max" then Simval.Bot
            else Simval.Int (Random.State.int rng 4)
          in
          Trace.add_return b ~pid ~op ~result;
          per_pid_open.(pid) <- None
      done;
      (* close remaining ops so brute force stays simple *)
      Array.iteri
        (fun pid op ->
          match op with
          | Some op ->
            let result = if op = "write_max" then Simval.Bot else Simval.Int 0 in
            Trace.add_return b ~pid ~op ~result
          | None -> ())
        per_pid_open;
      let trace = Trace.finish b in
      let ops = Linearize.History.of_trace trace in
      let expected = brute_force_max 2 ops in
      let got =
        Linearize.Checker.check (module Linearize.Spec.Max_register) ~n:2 ops
      in
      expected = got)

(* Generic brute force over any spec: try all real-time-respecting
   permutations; used to cross-validate the memoized checker on counter and
   snapshot histories too. *)
let brute_force_spec (type s) (module S : Linearize.Spec.SPEC with type state = s)
    ~n (ops : Linearize.History.op array) =
  let m = Array.length ops in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l
  in
  let respects_real_time order =
    let pos = Array.make m 0 in
    List.iteri (fun idx j -> pos.(j) <- idx) order;
    Array.for_all Fun.id
      (Array.mapi
         (fun a opa ->
           Array.for_all Fun.id
             (Array.mapi
                (fun b opb ->
                  match opa.Linearize.History.return with
                  | Some r when r < opb.Linearize.History.invoke ->
                    pos.(a) < pos.(b)
                  | Some _ | None -> true)
                ops))
         ops)
  in
  let legal order =
    let rec go state = function
      | [] -> true
      | j :: rest -> (
        let op = ops.(j) in
        match S.apply state ~name:op.Linearize.History.name ~pid:op.pid ~arg:op.arg with
        | None -> false
        | Some (state', result) -> (
          match op.result with
          | None -> go state' rest
          | Some r -> Simval.equal r result && go state' rest))
    in
    go (S.initial ~n) order
  in
  List.exists
    (fun order -> respects_real_time order && legal order)
    (permutations (List.init m Fun.id))

let random_history rng ~nprocs ~make_op ~actions =
  let b = Trace.builder () in
  let per_pid_open = Array.make nprocs None in
  for _ = 1 to actions do
    let pid = Random.State.int rng nprocs in
    match per_pid_open.(pid) with
    | None ->
      let op, arg = make_op `Invoke in
      Trace.add_invoke b ~pid ~op ~arg;
      per_pid_open.(pid) <- Some op
    | Some op ->
      let _, result = make_op (`Return op) in
      Trace.add_return b ~pid ~op ~result;
      per_pid_open.(pid) <- None
  done;
  Array.iteri
    (fun pid op ->
      match op with
      | Some op ->
        let _, result = make_op (`Return op) in
        Trace.add_return b ~pid ~op ~result
      | None -> ())
    per_pid_open;
  Linearize.History.of_trace (Trace.finish b)

let prop_counter_matches_brute_force =
  QCheck.Test.make ~name:"checker = brute force on random counter histories"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed; 3 |] in
      let make_op = function
        | `Invoke ->
          if Random.State.bool rng then ("increment", Simval.Bot)
          else ("read", Simval.Bot)
        | `Return op ->
          ( op,
            if op = "increment" then Simval.Bot
            else Simval.Int (Random.State.int rng 4) )
      in
      let ops =
        random_history rng ~nprocs:2 ~make_op
          ~actions:(4 + Random.State.int rng 4)
      in
      brute_force_spec (module Linearize.Spec.Counter) ~n:2 ops
      = Linearize.Checker.check (module Linearize.Spec.Counter) ~n:2 ops)

(* The first real-time-respecting legal order in lexicographic order of
   operation indices: the witness a depth-first search that tries lower
   indices first must return, on a history with no pending operation. *)
let brute_force_order (type s)
    (module S : Linearize.Spec.SPEC with type state = s) ~n
    (ops : Linearize.History.op array) =
  let m = Array.length ops in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l
  in
  let before a b =
    match ops.(a).Linearize.History.return with
    | Some r -> r < ops.(b).Linearize.History.invoke
    | None -> false
  in
  let rec legal state placed = function
    | [] -> true
    | j :: rest -> (
      List.for_all (fun i -> List.mem i placed || not (before i j))
        (List.init m Fun.id)
      &&
      let op = ops.(j) in
      match S.apply state ~name:op.Linearize.History.name ~pid:op.pid ~arg:op.arg with
      | None -> false
      | Some (state', result) -> (
        match op.result with
        | None -> legal state' (j :: placed) rest
        | Some r -> Simval.equal r result && legal state' (j :: placed) rest))
  in
  List.find_opt (legal (S.initial ~n) []) (permutations (List.init m Fun.id))

(* Histories of the shape the model-check workload checks: p0 and p1
   increment, p2 reads, each one to two operations, interleaved at
   random and all complete; reads return 0..3, so some are not
   linearizable.  The checker must agree with brute force on the verdict
   and on the witness order. *)
let prop_counter_orders_match_brute_force =
  QCheck.Test.make
    ~name:"checker = brute force on 3-process counter histories (orders too)"
    ~count:300 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed; 7 |] in
      let left = Array.init 3 (fun _ -> 1 + Random.State.int rng 2) in
      let open_ = Array.make 3 false in
      let b = Trace.builder () in
      let rec go () =
        let live =
          List.filter (fun pid -> open_.(pid) || left.(pid) > 0) [ 0; 1; 2 ]
        in
        if live <> [] then begin
          let pid = List.nth live (Random.State.int rng (List.length live)) in
          let op = if pid < 2 then "increment" else "read" in
          if open_.(pid) then begin
            let result =
              if pid < 2 then Simval.Bot
              else Simval.Int (Random.State.int rng 4)
            in
            Trace.add_return b ~pid ~op ~result;
            open_.(pid) <- false
          end
          else begin
            Trace.add_invoke b ~pid ~op ~arg:Simval.Bot;
            left.(pid) <- left.(pid) - 1;
            open_.(pid) <- true
          end;
          go ()
        end
      in
      go ();
      let ops = Linearize.History.of_trace (Trace.finish b) in
      brute_force_order (module Linearize.Spec.Counter) ~n:3 ops
      = Linearize.Checker.find_linearization (module Linearize.Spec.Counter)
          ~n:3 ops)

let prop_snapshot_matches_brute_force =
  QCheck.Test.make ~name:"checker = brute force on random snapshot histories"
    ~count:150 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed; 5 |] in
      let make_op = function
        | `Invoke ->
          if Random.State.bool rng then
            ("update", Simval.Int (Random.State.int rng 3))
          else ("scan", Simval.Bot)
        | `Return op ->
          ( op,
            if op = "update" then Simval.Bot
            else
              Simval.of_int_array
                (Array.init 2 (fun _ -> Random.State.int rng 3)) )
      in
      let ops =
        random_history rng ~nprocs:2 ~make_op
          ~actions:(4 + Random.State.int rng 3)
      in
      brute_force_spec (module Linearize.Spec.Snapshot) ~n:2 ops
      = Linearize.Checker.check (module Linearize.Spec.Snapshot) ~n:2 ops)

let () =
  Alcotest.run "linearize"
    [ ( "history",
        [ Alcotest.test_case "extraction" `Quick test_history_extraction;
          Alcotest.test_case "pending" `Quick test_history_pending ] );
      ( "max register",
        [ Alcotest.test_case "sequential legal" `Quick test_sequential_legal;
          Alcotest.test_case "sequential illegal" `Quick test_sequential_illegal;
          Alcotest.test_case "concurrent flexibility" `Quick test_concurrent_flexibility;
          Alcotest.test_case "real-time order" `Quick test_real_time_order;
          Alcotest.test_case "pending may apply" `Quick test_pending_write_may_apply;
          Alcotest.test_case "pending may not apply" `Quick test_pending_write_may_not_apply;
          Alcotest.test_case "non-monotone reads" `Quick test_non_monotone_reads ] );
      ( "other specs",
        [ Alcotest.test_case "counter" `Quick test_counter_spec;
          Alcotest.test_case "snapshot" `Quick test_snapshot_spec;
          Alcotest.test_case "new-old inversion" `Quick test_snapshot_new_old_inversion ] );
      ( "reference",
        [ QCheck_alcotest.to_alcotest prop_checker_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_counter_matches_brute_force;
          QCheck_alcotest.to_alcotest prop_counter_orders_match_brute_force;
          QCheck_alcotest.to_alcotest prop_snapshot_matches_brute_force ] ) ]
