type shape = {
  domains : int;
  read_share : float;
  stale_share : float;
  monitor : bool;
  counter : bool;
  reg_spans : Spans.name * Spans.name;
}

type mode = Plain | Timed | Traced

type loop = {
  domains : int;
  stream : Stream.t;
  op : int -> int -> unit;
  set_mode : mode -> unit;
  set_trace : Spans.t -> parent:int -> unit;
  take_latencies : read:bool -> int array;
  final_check : unit -> unit;
}

let[@inline] now () = Int64.to_int (Subjects.clock ())
let batch = Subjects.batch
let half = batch / 2

(* Batch latencies are counted per nanosecond (a coarser histogram would
   quantize a percentile into the same few values run after run); the
   last bucket, 131 us, also counts every slower batch. *)
let hist_size = 1 lsl 17

module Make (M : Subjects.MAXREG) (C : Subjects.COUNTER) = struct
  type t = {
    shape : shape;
    stream : Stream.t;
    reg : M.t;
    cnt : C.t option;
    mutable mode : mode;
    mutable hists : int array array;  (* index d * 2 + (1 if update) *)
    mutable spans : Spans.t option;
    mutable parent : int;
  }

  let create shape ~seed ~salt ~n ~reg_metrics ~cnt_metrics =
    { shape;
      stream =
        Stream.create ~seed ~salt ~domains:shape.domains ~base:n
          ~read_share:shape.read_share ~stale_share:shape.stale_share;
      reg = M.create ~metrics:reg_metrics ~n ~domains:shape.domains;
      cnt =
        (if shape.counter then Some (C.create ~metrics:cnt_metrics ~n) else None);
      mode = Plain;
      hists = [||];
      spans = None;
      parent = -1 }

  let register t = t.reg

  (* The histograms are allocated on first use, outside set-up. *)
  let set_mode t m =
    if m = Timed && t.hists = [||] then
      t.hists <- Array.init (2 * t.shape.domains) (fun _ -> Array.make hist_size 0);
    t.mode <- m

  let set_trace t spans ~parent =
    t.spans <- Some spans;
    t.parent <- parent

  let reg_reads t d k =
    let s = t.stream in
    let last = ref (Stream.get s d Last_max) and bad = ref 0 in
    for _ = 1 to k do
      let v = M.read_max t.reg in
      if v < !last then incr bad else last := v
    done;
    Stream.set s d Last_max !last;
    Stream.add s d Reads k;
    Stream.add s d Checks k;
    Stream.add s d Failures !bad

  let cnt_reads t c d k =
    let s = t.stream in
    let last = ref (Stream.get s d Last_count) and bad = ref 0 in
    for _ = 1 to k do
      let v = C.read c in
      if v < !last then incr bad else last := v
    done;
    Stream.set s d Last_count !last;
    Stream.add s d Reads k;
    Stream.add s d Checks k;
    Stream.add s d Failures !bad

  let reg_updates t d k ~metered =
    for _ = 1 to k do
      let v = Stream.next_value t.stream d in
      if metered then M.write_max_metered t.reg ~pid:d v
      else M.write_max t.reg ~pid:d v
    done;
    Stream.add t.stream d Updates k

  let cnt_updates t c d k ~metered =
    for _ = 1 to k do
      if metered then C.increment_metered c ~pid:d else C.increment c ~pid:d
    done;
    Stream.add t.stream d Updates k;
    Stream.add t.stream d Increments k

  (* The domain's own writes must be visible once its batch returns. *)
  let check_updates t d =
    let s = t.stream in
    Stream.check s d (M.read_max t.reg >= Stream.max_written s d);
    match t.cnt with
    | Some c -> Stream.check s d (C.read c >= Stream.get s d Increments)
    | None -> ()

  let run_batch t d ~read ~metered =
    (match t.cnt with
     | Some c ->
       if read then begin
         reg_reads t d half;
         cnt_reads t c d half
       end
       else begin
         reg_updates t d half ~metered;
         cnt_updates t c d half ~metered
       end
     | None ->
       if read then reg_reads t d batch else reg_updates t d batch ~metered);
    if not read then check_updates t d

  (* The traced batch: one span per layer touched. *)
  let traced_batch t d ~read spans =
    let parent = t.parent in
    let reg_name = if read then fst t.shape.reg_spans else snd t.shape.reg_spans in
    let c0 = now () in
    match t.cnt with
    | Some c ->
      if read then reg_reads t d half else reg_updates t d half ~metered:true;
      let c1 = now () in
      Spans.record spans ~tid:d reg_name ~parent c0 c1;
      if read then cnt_reads t c d half else cnt_updates t c d half ~metered:true;
      let c2 = now () in
      Spans.record spans ~tid:d
        (if read then Spans.Farray_read else Spans.Farray_increment)
        ~parent c1 c2;
      if not read then check_updates t d
    | None ->
      if read then reg_reads t d batch else reg_updates t d batch ~metered:true;
      Spans.record spans ~tid:d reg_name ~parent c0 (now ());
      if not read then check_updates t d

  let op t d _ =
    let read = if t.shape.monitor then d = 0 else Stream.next_is_read t.stream d in
    match t.mode with
    | Plain -> run_batch t d ~read ~metered:false
    | Timed ->
      let c0 = now () in
      run_batch t d ~read ~metered:false;
      let c1 = now () in
      let h = Array.unsafe_get t.hists ((2 * d) + if read then 0 else 1) in
      let b = max 0 (min (c1 - c0) (hist_size - 1)) in
      Array.unsafe_set h b (Array.unsafe_get h b + 1)
    | Traced -> (
      match t.spans with
      | Some spans -> traced_batch t d ~read spans
      | None -> run_batch t d ~read ~metered:true)

  let take_latencies t ~read =
    let merged = Array.make hist_size 0 in
    for d = 0 to t.shape.domains - 1 do
      let h = t.hists.((2 * d) + if read then 0 else 1) in
      Array.iteri (fun b c -> merged.(b) <- merged.(b) + c) h;
      Array.fill h 0 hist_size 0
    done;
    merged

  let final_check t =
    let s = t.stream in
    let writes = Stream.total s Updates - Stream.total s Increments in
    let largest = ref 0 in
    for d = 0 to t.shape.domains - 1 do
      largest := max !largest (Stream.max_written s d)
    done;
    Stream.check s 0 (M.read_max t.reg = if writes = 0 then 0 else !largest);
    match t.cnt with
    | Some c -> Stream.check s 0 (C.read c = Stream.total s Increments)
    | None -> ()

  let loop t =
    { domains = t.shape.domains;
      stream = t.stream;
      op = op t;
      set_mode = set_mode t;
      set_trace = set_trace t;
      take_latencies = (fun ~read -> take_latencies t ~read);
      final_check = (fun () -> final_check t) }
end
