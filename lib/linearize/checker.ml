(* Wing-Gong linearizability checker with memoization.

   Search over linearization orders: an operation may be linearized next if
   every operation that precedes it in real time (returned before it was
   invoked) has already been linearized.  Completed operations must all be
   linearized with matching results; pending operations may be linearized
   (with any result) or dropped.  States are memoized per (chosen-set,
   abstract state) to prune the exponential search — structural equality of
   states is required, which the specs in {!Spec} provide. *)

open Memsim

let find_linearization (type s) (module S : Spec.SPEC with type state = s) ~n
    (ops : History.op array) =
  let m = Array.length ops in
  if m > 62 then invalid_arg "Checker: more than 62 operations";
  (* completed ops must all be linearized *)
  let completed_mask = ref 0 in
  Array.iteri
    (fun i op -> if not (History.is_pending op) then completed_mask := !completed_mask lor (1 lsl i))
    ops;
  let completed_mask = !completed_mask in
  (* preds.(j): set of completed ops returning before op j was invoked *)
  let preds =
    Array.mapi
      (fun _j (opj : History.op) ->
        let mask = ref 0 in
        Array.iteri
          (fun i (opi : History.op) ->
            match opi.return with
            | Some r when r < opj.invoke -> mask := !mask lor (1 lsl i)
            | Some _ | None -> ())
          ops;
        !mask)
      ops
  in
  (* Most histories here have a handful of operations and the search
     visits a few states; start small and let the table grow. *)
  let visited : (int * s, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec dfs taken (state : s) =
    if taken land completed_mask = completed_mask then Some []
    else if Hashtbl.mem visited (taken, state) then None
    else begin
      Hashtbl.add visited (taken, state) ();
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
      try_ops 0
    end
  in
  dfs 0 (S.initial ~n)

let check spec ~n ops = find_linearization spec ~n ops <> None

let check_trace spec ~n trace = check spec ~n (History.of_trace trace)
