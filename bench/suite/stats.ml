type summary = { median : float; q1 : float; q3 : float; n : int }

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* statistics.quantiles, method "exclusive", transcribed: m = n + 1, cut
   point i between 1-based positions j = i*m/4 (clamped to [1, n-1]) and
   j + 1, weighted by the remainder. *)
let summarize xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.summarize: no samples";
  let med = median a in
  if n = 1 then { median = med; q1 = med; q3 = med; n }
  else begin
    let cut i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    { median = med; q1 = cut 1; q3 = cut 3; n }
  end

let quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let k = p *. float_of_int (n - 1) in
  let i = int_of_float k in
  let j = min (i + 1) (n - 1) in
  a.(i) +. ((a.(j) -. a.(i)) *. (k -. float_of_int i))

let spread_pct s =
  if s.median = 0. then 0. else 100. *. (s.q3 -. s.q1) /. Float.abs s.median

let trend_pct xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let fn = float_of_int n in
    let mx = (fn -. 1.) /. 2. in
    let my = Array.fold_left ( +. ) 0. xs /. fn in
    let sxy = ref 0. and sxx = ref 0. in
    Array.iteri
      (fun i y ->
        let dx = float_of_int i -. mx in
        sxy := !sxy +. (dx *. (y -. my));
        sxx := !sxx +. (dx *. dx))
      xs;
    let m = median xs in
    if m = 0. then 0. else 100. *. (!sxy /. !sxx) *. (fn -. 1.) /. Float.abs m
  end

let hist_count h = Array.fold_left ( + ) 0 h

let hist_percentile h p =
  let n = hist_count h in
  if n = 0 then nan
  else begin
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
    let b = ref 0 and seen = ref h.(0) in
    while !seen < rank do
      incr b;
      seen := !seen + h.(!b)
    done;
    float_of_int !b
  end
