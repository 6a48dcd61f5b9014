(* E7 — the practical payoff of O(1) reads (Section 5's positive result),
   on real parallel hardware: OCaml 5 domains over the native compiles.

   The paper's model counts steps; this experiment checks that the
   step-count ordering survives contact with real cache coherence.  It
   is the repository's one native sweep: every structure the registry
   builds natively, boxed and unboxed, plus Algorithm A under dispatch
   ({!Harness.Adaptive.Alg_a}, pinned to combining and adaptive), at a
   write-only, a half-read and a read-mostly share, on one domain and
   on several.

   One loop serves every cell.  A cell is an instance record, driven
   in batches of [batch] operations by {!Harness.Throughput.run_batched}
   through the instance record, so each operation is one indirect call;
   bench/suite, not E7, measures the bare per-op cost.  The harness
   restarts its iteration base at 0 on every pass, so a max-register
   cell keeps its own per-domain value cursor, which carries across the
   warmup and every trial: each write of each pass is the domain's
   largest so far.  (A loop that derived values from the base would
   repeat the first pass's values, and a repeated write stops early.) *)

module I = Harness.Instances

let batch = 64

(* {1 The timed loop} *)

let pattern_slots = 128
let mask = pattern_slots - 1

(* Evenly interleaved deterministic mix over 128 slots, [true] for a
   read: the read share quantized to 1/128. *)
let read_pattern ~read_pct =
  let reads = ((read_pct * pattern_slots) + 50) / 100 in
  Array.init pattern_slots (fun i ->
      ((i + 1) * reads / pattern_slots) - (i * reads / pattern_slots) = 1)

(* One 128-byte stride per domain, so two domains' cursors never share
   a cache line. *)
let stride = 16

let maxreg_op (r : Maxreg.Max_register.instance) ~domains ~read_pct =
  let pattern = read_pattern ~read_pct in
  let cursors = Array.make (domains * stride) 1 in
  fun d i0 ->
    for k = 0 to batch - 1 do
      if Array.unsafe_get pattern ((i0 + k) land mask) then
        ignore (r.read_max () : int)
      else begin
        let c = d * stride in
        let v = Array.unsafe_get cursors c in
        Array.unsafe_set cursors c (v + 1);
        r.write_max ~pid:d ((v * domains) + d)
      end
    done

let counter_op (c : Counters.Counter.instance) ~read_pct =
  let pattern = read_pattern ~read_pct in
  fun d i0 ->
    for k = 0 to batch - 1 do
      if Array.unsafe_get pattern ((i0 + k) land mask) then
        ignore (c.read () : int)
      else c.increment ~pid:d
    done

let time ~domains ~seconds ~trials op =
  let pass () =
    Harness.Throughput.run_batched ~domains ~seconds ~batch ~op () /. 1e6
  in
  ignore (pass () : float);
  let ms = List.sort Float.compare (List.init trials (fun _ -> pass ())) in
  List.nth ms (trials / 2)

(* {1 Columns} *)

type subject = Maxreg of I.maxreg_impl | Counter of I.counter_impl
type backend = Boxed | Unboxed | Combining | Adaptive

type instance =
  | Register of Maxreg.Max_register.instance
  | Count of Counters.Counter.instance

(* The AAC register's value bound.  Its tree is built eagerly, one
   switch per value, and every write of a cell must lie below it: a
   full run's four 0.2 s passes write about 3.5M values on one domain
   of the host EXPERIMENTS.md names, and a write past the bound raises
   [Invalid_argument]. *)
let aac_bound = 10_000_000

(* Algorithm A under dispatch, through the same instance record as the
   registry's columns: [Combining] pins every update to the arena path,
   [Adaptive] runs the per-op dispatch under the default policy. *)
let dispatched ~n ~domains backend =
  let module A = Harness.Adaptive.Alg_a in
  let t = A.create ~n ~domains () in
  { Maxreg.Max_register.read_max = (fun () -> A.read_max t);
    write_max =
      (if backend = Combining then A.update_combining t else A.write_max t) }

(* The instance for one column, or [None] where none exists: the
   registry builds none unboxed for AAC, and only Algorithm A is
   dispatched. *)
let instance ~n ~domains subject backend =
  match (subject, backend) with
  | Maxreg impl, Boxed -> Some (Register (I.maxreg_native ~n ~bound:aac_bound impl))
  | Maxreg impl, Unboxed ->
    Option.map (fun r -> Register r) (I.maxreg_unboxed ~n (I.Impl impl))
  | Maxreg I.Algorithm_a, ((Combining | Adaptive) as b) ->
    Some (Register (dispatched ~n ~domains b))
  | Counter impl, Boxed -> Some (Count (I.counter_native ~n ~bound:aac_bound impl))
  | Counter impl, Unboxed ->
    Option.map (fun c -> Count c) (I.counter_unboxed ~n (I.Impl impl))
  | (Maxreg _ | Counter _), (Combining | Adaptive) -> None

let builds subject backend =
  backend = Boxed || Option.is_some (instance ~n:1 ~domains:1 subject backend)

(* Every max register, and every counter with a native compile; the
   AAC and snapshot counters have none, and E2 counts their steps. *)
let subjects () =
  List.map (fun m -> Maxreg m) I.all_maxregs
  @ List.filter_map
      (fun c -> if builds (Counter c) Unboxed then Some (Counter c) else None)
      I.all_counters

let cells () =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun b -> if builds s b then Some (s, b) else None)
        [ Boxed; Unboxed; Combining; Adaptive ])
    (subjects ())

let names (subject, backend) =
  let structure, impl =
    match subject with
    | Maxreg m -> ("max-register", I.maxreg_name m)
    | Counter c -> ("counter", I.counter_name c)
  in
  ( structure,
    impl,
    match backend with
    | Boxed -> "boxed"
    | Unboxed -> "unboxed"
    | Combining -> "combining"
    | Adaptive -> "adaptive" )

let columns () = List.map names (cells ())

(* {1 The sweep} *)

let read_shares = [ 0; 50; 90 ]

(* /proc/cpuinfo's first model name, where there is one. *)
let cpu_model () =
  let model l =
    match String.index_opt l ':' with
    | Some i when String.starts_with ~prefix:"model name" l ->
      Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
    | _ -> None
  in
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | text ->
    Option.value ~default:"unknown CPU"
      (List.find_map model (String.split_on_char '\n' text))
  | exception Sys_error _ -> "unknown CPU"

let op ~n ~domains ~read_pct (subject, backend) =
  match instance ~n ~domains subject backend with
  | Some (Register r) -> maxreg_op r ~domains ~read_pct
  | Some (Count c) -> counter_op c ~read_pct
  | None -> invalid_arg "E7: no such column"

let run ~seconds ~trials () =
  let recommended = Harness.Throughput.recommended_domains () in
  let multi = Harness.Throughput.recommended_domains ~floor:2 ~cap:4 () in
  let row cell domains =
    let structure, impl, backend = names cell in
    [ structure; impl; backend;
      (string_of_int domains ^ if domains > recommended then "*" else "") ]
    @ List.map
        (fun read_pct ->
          let rate =
            time ~domains ~seconds ~trials
              (op ~n:multi ~domains ~read_pct cell)
          in
          (* collect the cell before building the next: an AAC tree
             holds hundreds of MB *)
          Gc.full_major ();
          Printf.sprintf "%.2f" rate)
        read_shares
  in
  Harness.Tables.render
    ~title:
      (Printf.sprintf
         "E7: native throughput (Mops/s, median of %d trial%s of %gs after \
          a warmup pass) on %s, recommended domains %d, OCaml %s; each op \
          is one call through an instance record (bench/suite \
          measures bare per-op cost); * = more domains than the host \
          recommends"
         trials
         (if trials = 1 then "" else "s")
         seconds (cpu_model ()) recommended Sys.ocaml_version)
    ~header:
      ([ "structure"; "impl"; "backend"; "domains" ]
      @ List.map (Printf.sprintf "%d%% reads") read_shares)
    (List.concat_map
       (fun cell -> List.map (row cell) [ 1; multi ])
       (cells ()))
