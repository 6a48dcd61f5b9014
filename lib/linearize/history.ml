(* Histories of high-level operations, recovered from the Invoke/Return
   annotations of a trace.  Operations of one process are sequential and
   non-nested (annotate only top-level operations). *)

open Memsim

type op = {
  pid : int;
  name : string;
  arg : Simval.t;
  result : Simval.t option;  (* None: the operation is pending *)
  invoke : int;              (* entry index of the invocation *)
  return : int option;       (* entry index of the response *)
}

let unused =
  { pid = -1; name = ""; arg = Simval.Bot; result = None; invoke = -1;
    return = None }

(* One pass: each invocation appends a slot, so the slots come out in
   invocation order, and [open_.(pid)] is the slot of [pid]'s open
   operation (-1 if none), completed by its return. *)
let of_trace trace =
  let entries = Trace.entries trace in
  let ops = ref (Array.make 8 unused) and count = ref 0 in
  let open_ = ref (Array.make 8 (-1)) in
  let open_slot pid =
    if pid >= Array.length !open_ then begin
      let grown = Array.make (2 * pid + 1) (-1) in
      Array.blit !open_ 0 grown 0 (Array.length !open_);
      open_ := grown
    end;
    !open_.(pid)
  in
  for idx = 0 to Array.length entries - 1 do
    match entries.(idx) with
    | Trace.Mem _ -> ()
    | Trace.Invoke { pid; op; arg } ->
      if open_slot pid >= 0 then
        invalid_arg
          (Printf.sprintf "History.of_trace: nested operation by p%d" pid);
      if !count = Array.length !ops then begin
        let grown = Array.make (2 * !count) unused in
        Array.blit !ops 0 grown 0 !count;
        ops := grown
      end;
      !ops.(!count) <-
        { pid; name = op; arg; result = None; invoke = idx; return = None };
      !open_.(pid) <- !count;
      incr count
    | Trace.Return { pid; op; result } ->
      let slot = open_slot pid in
      if slot < 0 then
        invalid_arg
          (Printf.sprintf "History.of_trace: p%d returns without invoke" pid);
      let o = !ops.(slot) in
      if o.name <> op then
        invalid_arg
          (Printf.sprintf
             "History.of_trace: p%d returns from %s while %s is open" pid op
             o.name);
      !ops.(slot) <- { o with result = Some result; return = Some idx };
      !open_.(pid) <- -1
  done;
  (* operations that never returned stay pending *)
  Array.sub !ops 0 !count

let is_pending op = op.result = None

let pp_op ppf op =
  Fmt.pf ppf "p%d %s(%a)%a" op.pid op.name Simval.pp op.arg
    (Fmt.option (fun ppf r -> Fmt.pf ppf " = %a" Simval.pp r))
    op.result
