type pass = {
  seconds : float;
  classes : int;
  ops : int;
  updates : int;
  sleep_blocked : int;
  events : int;
  per_config : (Subjects.Model.config * int) list;
  checks : int;
  failures : int;
  chunks : (float * float) array;
}

let now () = Int64.to_int (Subjects.clock ())

(* A pass takes about two seconds.  Timed whole, a 25 s run held about
   ten samples; timed in chunks of this many classes, about 300. *)
let chunk = 1024

let run ?(pins = Subjects.Model.pinned_classes) ?trace model =
  let t0 = now () in
  let chunks = ref [] and in_chunk = ref 0 in
  let chunk_start = ref t0 and chunk_cpu = ref (Subjects.cpu_seconds ()) in
  let counted ok =
    incr in_chunk;
    if !in_chunk = chunk then begin
      let t = now () and cpu = Subjects.cpu_seconds () in
      let seconds = float_of_int (t - !chunk_start) /. 1e9 in
      chunks := (float_of_int (3 * chunk) /. seconds, (cpu -. !chunk_cpu) /. seconds) :: !chunks;
      in_chunk := 0;
      chunk_start := t;
      chunk_cpu := cpu
    end;
    ok
  in
  let explore config =
    match trace with
    | None -> Subjects.Model.explore model config ~check:(fun f -> counted (f ()))
    | Some (spans, parent) ->
      let start = now () in
      let id = Spans.open_span spans ~tid:0 Spans.Dpor_explore ~parent start in
      let e =
        Subjects.Model.explore model config ~check:(fun f ->
            let c0 = now () in
            let ok = f () in
            Spans.record spans ~tid:0 Spans.Linearize_check ~parent:id c0 (now ());
            counted ok)
      in
      Spans.close_span spans ~tid:0 Spans.Dpor_explore id ~start (now ());
      e
  in
  let results = List.map (fun c -> (c, explore c)) Subjects.Model.configs in
  let seconds = float_of_int (now () - t0) /. 1e9 in
  let sum f = List.fold_left (fun acc (_, e) -> acc + f e) 0 results in
  let classes = sum (fun e -> e.Subjects.Model.classes) in
  (* a class is one checked operation; each pin is one more *)
  let pin_failures =
    List.length
      (List.filter
         (fun (c, (e : Subjects.Model.explored)) ->
           e.truncated || e.classes <> pins c)
         results)
  in
  { seconds;
    classes;
    ops = 3 * classes;
    updates = 2 * classes;
    sleep_blocked = sum (fun e -> e.sleep_blocked);
    events = sum (fun e -> e.events);
    per_config = List.map (fun (c, e) -> (c, e.Subjects.Model.classes)) results;
    checks = classes + List.length results;
    failures = sum (fun e -> e.non_linearizable) + pin_failures;
    chunks = Array.of_list (List.rev !chunks) }
