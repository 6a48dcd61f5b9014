type name =
  | Trial
  | Alg_a_read_max
  | Farray_read
  | Alg_a_write_max
  | Farray_increment
  | Adaptive_read_max
  | Adaptive_write_max
  | Dpor_explore
  | Linearize_check

let all =
  [| Trial; Alg_a_read_max; Farray_read; Alg_a_write_max; Farray_increment;
     Adaptive_read_max; Adaptive_write_max; Dpor_explore; Linearize_check |]

let name_index = function
  | Trial -> 0
  | Alg_a_read_max -> 1
  | Farray_read -> 2
  | Alg_a_write_max -> 3
  | Farray_increment -> 4
  | Adaptive_read_max -> 5
  | Adaptive_write_max -> 6
  | Dpor_explore -> 7
  | Linearize_check -> 8

let name_string = function
  | Trial -> "suite.trial"
  | Alg_a_read_max -> "alg_a.read_max"
  | Farray_read -> "farray.read"
  | Alg_a_write_max -> "alg_a.write_max"
  | Farray_increment -> "farray.increment"
  | Adaptive_read_max -> "adaptive.read_max"
  | Adaptive_write_max -> "adaptive.write_max"
  | Dpor_explore -> "dpor.explore"
  | Linearize_check -> "linearize.check"

let capacity = 1 lsl 16

(* Per-thread state, one 128-byte block each in [tally]: per-name ns
   totals in slots 0..8, the buffer length in slot 15. *)
let stride = 16
let len_slot = 15

type buffer = {
  names : int array;
  starts : int array;
  stops : int array;
  parents : int array;
}

type t = { domains : int; buffers : buffer array; tally : int array }

let create ~domains =
  let buffer () =
    { names = Array.make capacity 0;
      starts = Array.make capacity 0;
      stops = Array.make capacity 0;
      parents = Array.make capacity 0 }
  in
  { domains;
    buffers = Array.init (domains + 1) (fun _ -> buffer ());
    tally = Array.make ((domains + 1) * stride) 0 }

let main t = t.domains

let open_span t ~tid name ~parent start =
  let o = tid * stride in
  let i = t.tally.(o + len_slot) in
  if i >= capacity then -1
  else begin
    let b = t.buffers.(tid) in
    b.names.(i) <- name_index name;
    b.starts.(i) <- start;
    b.stops.(i) <- start;
    b.parents.(i) <- parent;
    t.tally.(o + len_slot) <- i + 1;
    (tid * capacity) + i
  end

let close_span t ~tid name id ~start stop =
  let o = (tid * stride) + name_index name in
  t.tally.(o) <- t.tally.(o) + (stop - start);
  if id >= 0 then t.buffers.(tid).stops.(id - (tid * capacity)) <- stop

let record t ~tid name ~parent start stop =
  close_span t ~tid name (open_span t ~tid name ~parent start) ~start stop

let total_ns t name =
  let acc = ref 0 in
  for tid = 0 to t.domains do
    acc := !acc + t.tally.((tid * stride) + name_index name)
  done;
  !acc

let write_chrome t path =
  let origin = ref max_int in
  Array.iteri
    (fun tid b ->
      for i = 0 to t.tally.((tid * stride) + len_slot) - 1 do
        origin := min !origin b.starts.(i)
      done)
    t.buffers;
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else output_string oc ",\n" in
  Array.iteri
    (fun tid b ->
      sep ();
      Printf.fprintf oc
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
        tid
        (if tid = t.domains then "main" else Printf.sprintf "domain %d" tid);
      for i = 0 to t.tally.((tid * stride) + len_slot) - 1 do
        sep ();
        Printf.fprintf oc
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
          (name_string all.(b.names.(i)))
          tid
          (float_of_int (b.starts.(i) - !origin) /. 1e3)
          (float_of_int (b.stops.(i) - b.starts.(i)) /. 1e3)
          ((tid * capacity) + i) b.parents.(i)
      done)
    t.buffers;
  output_string oc "]}\n";
  close_out oc
