(* Fault plans: crash/stall adversaries as data.

   Program-level faults (crash, spurious CAS failure) are body
   transformations built on effect forwarding: the instrumented body
   installs an inner handler that intercepts [Session.Mem_op], counts the
   process's own events, and either re-performs the operation outward (so
   the scheduler's outer handler still controls interleaving), doctors it
   (a forced-fail CAS becomes a read answered [false]), or cuts the body
   short (crash = discontinue the inner continuation).  The instrumented
   program is an ordinary deterministic program, which is what makes these
   faults composable with Explore, Dpor and Shrink unchanged.

   Scheduler-level faults (stall, halt-all-but) are a gate over scheduling
   points, consulted by the gated runners and the gated explorer.  A gate
   is a pure function of the schedule prefix (points elapsed = steps +
   idle ticks, both deterministic), so prefix replay reproduces it. *)

type fault =
  | Crash of { pid : int; after : int }
  | Cas_fail of { pid : int; nth : int }
  | Stall of { pid : int; at : int; points : int }
  | Halt_all_but of { pid : int; at : int }

type plan = fault list

let pp_fault ppf = function
  | Crash { pid; after } -> Fmt.pf ppf "crash:%d@%d" pid after
  | Cas_fail { pid; nth } -> Fmt.pf ppf "casfail:%d#%d" pid nth
  | Stall { pid; at; points } -> Fmt.pf ppf "stall:%d@%d+%d" pid at points
  | Halt_all_but { pid; at } -> Fmt.pf ppf "haltbut:%d@%d"  pid at

let pp ppf = function
  | [] -> Fmt.string ppf "none"
  | plan -> Fmt.(list ~sep:(any ",") pp_fault) ppf plan

let to_string plan = Fmt.str "%a" pp plan

let parse_fault s =
  (* numbers and the kind tolerate surrounding whitespace, so a plan
     pretty-printed with spaces ("crash: 0 @ 2") round-trips — only the
     separators (':' '@' '#' '+' ',') carry structure *)
  let int_of s =
    match int_of_string_opt (String.trim s) with
    | Some v when v >= 0 -> Ok v
    | Some _ | None -> Error (Printf.sprintf "bad number %S in fault" s)
  in
  let ( let* ) = Result.bind in
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "fault %S: expected KIND:ARGS" s)
  | Some i -> (
    let kind = String.trim (String.sub s 0 i) in
    let args = String.sub s (i + 1) (String.length s - i - 1) in
    let split c =
      match String.index_opt args c with
      | None ->
        Error (Printf.sprintf "fault %S: expected PID%cN after %s:" s c kind)
      | Some j ->
        let* a = int_of (String.sub args 0 j) in
        Ok (a, String.sub args (j + 1) (String.length args - j - 1))
    in
    match kind with
    | "crash" ->
      let* pid, rest = split '@' in
      let* after = int_of rest in
      Ok (Crash { pid; after })
    | "casfail" ->
      let* pid, rest = split '#' in
      let* nth = int_of rest in
      if nth = 0 then Error "casfail: NTH is 1-based"
      else Ok (Cas_fail { pid; nth })
    | "haltbut" ->
      let* pid, rest = split '@' in
      let* at = int_of rest in
      Ok (Halt_all_but { pid; at })
    | "stall" ->
      let* pid, rest = split '@' in
      (match String.index_opt rest '+' with
       | None -> Error (Printf.sprintf "fault %S: expected AT+POINTS" s)
       | Some j ->
         let* at = int_of (String.sub rest 0 j) in
         let* points =
           int_of (String.sub rest (j + 1) (String.length rest - j - 1))
         in
         Ok (Stall { pid; at; points }))
    | k -> Error (Printf.sprintf "unknown fault kind %S" k))

let parse s =
  match String.trim s with
  | "" | "none" -> Ok []
  | s ->
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.fold_left
         (fun acc part ->
           Result.bind acc (fun plan ->
               Result.bind (parse_fault part) (fun f ->
                   (* a clause repeated verbatim is always a mistake (the
                      plan semantics would silently apply it once), so
                      reject it instead of deduplicating *)
                   if List.mem f plan then
                     Error
                       (Printf.sprintf "duplicate fault clause %s"
                          (to_string [ f ]))
                   else Ok (f :: plan))))
         (Ok [])
    |> Result.map List.rev

(* {1 Program-level composition} *)

let is_program_fault = function
  | Crash _ | Cas_fail _ -> true
  | Stall _ | Halt_all_but _ -> false

let has_program_faults plan = List.exists is_program_fault plan

(* Earliest crash point for [pid], if any. *)
let crash_after plan pid =
  List.fold_left
    (fun acc f ->
      match f with
      | Crash { pid = p; after } when p = pid -> (
        match acc with Some a -> Some (min a after) | None -> Some after)
      | _ -> acc)
    None plan

let cas_fail_nths plan pid =
  List.filter_map
    (function Cas_fail { pid = p; nth } when p = pid -> Some nth | _ -> None)
    plan

let instrument plan make_body =
  if not (has_program_faults plan) then make_body
  else
    fun pid ->
      match (crash_after plan pid, cas_fail_nths plan pid) with
      | None, [] -> make_body pid
      | crash, failed_cas ->
        fun () ->
          let body = make_body pid in
          let events = ref 0 in
          let cases = ref 0 in
          let crashed = ref false in
          let crash_now () =
            match crash with Some a -> !events >= a | None -> false
          in
          Effect.Deep.match_with body ()
            { retc = (fun () -> ());
              exnc =
                (fun e ->
                  match e with
                  (* our own crash unwinding; the body returns normally so
                     the scheduler sees an ordinary (early) completion *)
                  | Session.Erased when !crashed -> ()
                  | e -> raise e);
              effc =
                (fun (type a) (eff : a Effect.t) ->
                  match eff with
                  | Session.Mem_op (obj, prim) ->
                    Some
                      (fun (k : (a, unit) Effect.Deep.continuation) ->
                        if crash_now () then begin
                          crashed := true;
                          Effect.Deep.discontinue k Session.Erased
                        end
                        else begin
                          incr events;
                          match prim with
                          | Event.Cas _
                            when (incr cases; List.mem !cases failed_cas) ->
                            (* spurious failure: the step happens (a read
                               of the same object — trivial, hence a legal
                               stand-in for a failed CAS) but the body is
                               told the CAS lost *)
                            let (_ : Event.response) =
                              Effect.perform (Session.Mem_op (obj, Event.Read))
                            in
                            Effect.Deep.continue k (Event.RBool false)
                          | Event.Read | Event.Write _ | Event.Cas _ ->
                            Effect.Deep.continue k
                              (Effect.perform (Session.Mem_op (obj, prim)))
                        end)
                  | _ -> None) }

(* {1 Scheduler-level composition} *)

type gate = { plan : plan; mutable point : int }

let gate plan = { plan; point = 0 }

let permits g pid =
  List.for_all
    (fun f ->
      match f with
      | Stall { pid = p; at; points } ->
        not (p = pid && g.point >= at && g.point < at + points)
      | Halt_all_but { pid = p; at } -> not (g.point >= at && p <> pid)
      | Crash _ | Cas_fail _ -> true)
    g.plan

let halted_forever g pid =
  List.exists
    (function
      | Halt_all_but { pid = p; at } -> g.point >= at && p <> pid
      | Crash _ | Cas_fail _ | Stall _ -> false)
    g.plan

let tick g = g.point <- g.point + 1

let step sched g pid =
  if not (permits g pid) then
    invalid_arg
      (Fmt.str "Faults.step: plan %a gates p%d at point %d" pp g.plan pid
         g.point);
  let ev = Scheduler.step sched pid in
  tick g;
  ev

(* Tick through stalls until some active pid is schedulable.  [`Frozen]
   when the remaining active pids can never run again (a halt-all-but in
   effect names a process that is done): the execution is maximal even
   though processes remain.  Terminates: a non-halted stalled pid is
   released once every finite stall interval lies behind [g.point]. *)
let rec settle sched g =
  match Scheduler.active_pids sched with
  | [] -> `Done
  | active ->
    if List.for_all (halted_forever g) active then `Frozen
    else begin
      match List.filter (permits g) active with
      | [] -> tick g; settle sched g
      | pids -> `Ready pids
    end

let run_round_robin ?(max_events = max_int) sched g =
  let budget = ref max_events in
  let next = ref 0 in
  let rec loop () =
    if !budget > 0 then
      match settle sched g with
      | `Done | `Frozen -> ()
      | `Ready pids ->
        (* round-robin over permitted pids: first permitted >= !next *)
        let pid =
          match List.filter (fun p -> p >= !next) pids with
          | p :: _ -> p
          | [] -> List.hd pids
        in
        ignore (step sched g pid : Event.t);
        next := pid + 1;
        decr budget;
        loop ()
  in
  loop ()

let run_random ?(max_events = max_int) ~seed sched g =
  let rng = Random.State.make [| seed |] in
  let budget = ref max_events in
  let rec loop () =
    if !budget > 0 then
      match settle sched g with
      | `Done | `Frozen -> ()
      | `Ready pids ->
        let pid = List.nth pids (Random.State.int rng (List.length pids)) in
        ignore (step sched g pid : Event.t);
        decr budget;
        loop ()
  in
  loop ()

(* {1 Gated exhaustive exploration}

   [Explore.walk] over the instrumented bodies, whose node state is the
   gate's scheduling point.  [settle] ticks it at a node, and a child
   starts at the settled point plus its step.  A child's pid was chosen
   from the pids permitted at the settled point, and [settle] stops
   ticking at the first point where some pid is permitted, so the pid
   was permitted at no earlier point: the point is a function of the
   schedule alone, and a restarted child resumes it. *)

let explore ?max_schedules ?max_events session ~n ~make_body ~plan
    ~on_complete () =
  Explore.walk ?max_schedules ?max_events session ~n
    ~make_body:(instrument plan make_body) ~on_complete ~root:0
    ~visit:(fun sched ~depth:_ point ~descend ->
      let g = { plan; point } in
      match settle sched g with
      | `Done | `Frozen -> true
      | `Ready pids ->
        List.iter (fun pid -> descend pid (g.point + 1)) pids;
        false)
    ()

(* {1 Plan enumeration and minimization} *)

let single_crash_plans ~counts =
  let plans = ref [] in
  for pid = Array.length counts - 1 downto 0 do
    for after = counts.(pid) - 1 downto 0 do
      plans := [ Crash { pid; after } ] :: !plans
    done
  done;
  !plans

let single_stall_plans ~n ~max_point ~points =
  let plans = ref [] in
  for pid = n - 1 downto 0 do
    for at = max_point downto 0 do
      plans := [ Stall { pid; at; points } ] :: !plans
    done
  done;
  !plans

(* Candidate smaller plans, in decreasing order of ambition: drop each
   fault entirely, then shrink each numeric field (halve toward zero,
   then decrement). *)
let shrink_candidates plan =
  let drops =
    List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) plan) plan
  in
  let shrink_int v =
    if v <= 0 then [] else if v = 1 then [ 0 ] else [ v / 2; v - 1 ]
  in
  let numeric =
    List.concat
      (List.mapi
         (fun i f ->
           let replace f' = List.mapi (fun j g -> if j = i then f' else g) plan in
           match f with
           | Crash { pid; after } ->
             List.map (fun after -> replace (Crash { pid; after }))
               (shrink_int after)
           | Cas_fail { pid; nth } ->
             List.filter_map
               (fun nth ->
                 if nth >= 1 then Some (replace (Cas_fail { pid; nth }))
                 else None)
               (shrink_int nth)
           | Stall { pid; at; points } ->
             List.map (fun at -> replace (Stall { pid; at; points }))
               (shrink_int at)
             @ List.filter_map
                 (fun points ->
                   if points >= 1 then
                     Some (replace (Stall { pid; at; points }))
                   else None)
                 (shrink_int points)
           | Halt_all_but { pid; at } ->
             List.map (fun at -> replace (Halt_all_but { pid; at }))
               (shrink_int at))
         plan)
  in
  drops @ numeric

let minimize ?(rounds = 1000) ~test plan =
  if not (test plan) then
    invalid_arg "Faults.minimize: test does not hold of the initial plan";
  let budget = ref rounds in
  let rec go plan =
    if !budget <= 0 then plan
    else begin
      let next =
        List.find_opt
          (fun candidate -> decr budget; test candidate)
          (shrink_candidates plan)
      in
      match next with Some smaller -> go smaller | None -> plan
    end
  in
  go plan
