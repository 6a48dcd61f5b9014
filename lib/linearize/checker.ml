(* Wing-Gong linearizability checker with memoization.

   Search over linearization orders: an operation may be linearized next if
   every operation that precedes it in real time (returned before it was
   invoked) has already been linearized.  Completed operations must all be
   linearized with matching results; pending operations may be linearized
   (with any result) or dropped.  Failed states are memoized per
   (chosen-set, abstract state) to prune the exponential search —
   structural equality of states is required, which the specs in {!Spec}
   provide. *)

open Memsim

let find_linearization (type s) (module S : Spec.SPEC with type state = s) ~n
    (ops : History.op array) =
  let m = Array.length ops in
  if m > 62 then invalid_arg "Checker: more than 62 operations";
  (* completed ops must all be linearized *)
  let completed_mask = ref 0 in
  for i = 0 to m - 1 do
    if not (History.is_pending ops.(i)) then
      completed_mask := !completed_mask lor (1 lsl i)
  done;
  let completed_mask = !completed_mask in
  (* preds.(j): set of completed ops returning before op j was invoked *)
  let preds = Array.make m 0 in
  for j = 0 to m - 1 do
    let invoke = ops.(j).invoke in
    for i = 0 to m - 1 do
      match ops.(i).return with
      | Some r when r < invoke -> preds.(j) <- preds.(j) lor (1 lsl i)
      | Some _ | None -> ()
    done
  done;
  (* Only a failed search is memoized.  Every step adds an operation to
     [taken], so a state on the current path is never reached again, and
     a search that succeeds ends the whole search: a failed state is the
     only one a later branch can meet.  Most histories here linearize
     without a failure, so the table is made at the first one. *)
  let failed : (int * s, unit) Hashtbl.t option ref = ref None in
  let rec dfs taken (state : s) =
    if taken land completed_mask = completed_mask then Some []
    else
      match !failed with
      | Some tbl when Hashtbl.mem tbl (taken, state) -> None
      | Some _ | None -> (
        let rec try_ops j =
          if j >= m then None
          else
            let bit = 1 lsl j in
            if
              taken land bit <> 0
              || preds.(j) land taken <> preds.(j)
            then try_ops (j + 1)
            else
              let op = ops.(j) in
              match S.apply state ~name:op.name ~pid:op.pid ~arg:op.arg with
              | None ->
                invalid_arg
                  (Printf.sprintf "Checker: spec does not know operation %s"
                     op.name)
              | Some (state', result) ->
                let result_ok =
                  match op.result with
                  | None -> true (* pending: took effect with any result *)
                  | Some r -> Simval.equal r result
                in
                let continue_here =
                  if result_ok then
                    match dfs (taken lor bit) state' with
                    | Some order -> Some (j :: order)
                    | None -> None
                  else None
                in
                (match continue_here with
                 | Some _ as found -> found
                 | None -> try_ops (j + 1))
        in
        match try_ops 0 with
        | Some _ as found -> found
        | None ->
          let tbl =
            match !failed with
            | Some tbl -> tbl
            | None ->
              let tbl = Hashtbl.create 16 in
              failed := Some tbl;
              tbl
          in
          Hashtbl.replace tbl (taken, state) ();
          None)
  in
  dfs 0 (S.initial ~n)

let check spec ~n ops = find_linearization spec ~n ops <> None

let check_trace spec ~n trace = check spec ~n (History.of_trace trace)
