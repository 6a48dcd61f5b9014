module J = Subjects.Json

type t = {
  workloads : string list;
  end_to_end : (Metric.def * float) list;
  per_layer : Metric.def list;
}

let fail fmt = Printf.ksprintf failwith fmt

let field name j =
  match J.member name j with Some v -> v | None -> fail "BENCHMARK.json: no %S" name

let str name j =
  match J.as_string (field name j) with
  | Some s -> s
  | None -> fail "BENCHMARK.json: %S is not a string" name

let list name j =
  match J.as_list (field name j) with
  | Some l -> l
  | None -> fail "BENCHMARK.json: %S is not a list" name

let def j : Metric.def =
  { name = str "name" j;
    unit_ = str "unit" j;
    better =
      (match str "better" j with
       | "higher" -> Higher
       | "lower" -> Lower
       | b -> fail "BENCHMARK.json: better = %S" b) }

let load path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> fail "%s" e
  in
  let j = try J.parse text with J.Parse_error e -> fail "%s: %s" path e in
  { workloads = List.map (str "name") (list "workloads" j);
    end_to_end =
      List.map
        (fun m ->
          match J.as_float (field "bound" m) with
          | Some b -> (def m, b)
          | None -> fail "BENCHMARK.json: bound is not a number")
        (list "end_to_end" j);
    per_layer = List.map def (list "per_layer" j) }

let same_set what ours theirs =
  let missing a b = List.filter (fun x -> not (List.mem x b)) a in
  List.map (Printf.sprintf "%s %S is not in BENCHMARK.json" what) (missing ours theirs)
  @ List.map (Printf.sprintf "BENCHMARK.json %s %S is not reported" what) (missing theirs ours)

let problems t =
  let key (d : Metric.def) =
    Printf.sprintf "%s [%s, %s]" d.name d.unit_ (Metric.better_string d.better)
  in
  same_set "workload" (List.map fst Runner.workloads) t.workloads
  @ same_set "end-to-end metric"
      (List.map key Metric.end_to_end)
      (List.map (fun (d, _) -> key d) t.end_to_end)
  @ same_set "per-layer metric" (List.map key Metric.per_layer) (List.map key t.per_layer)
