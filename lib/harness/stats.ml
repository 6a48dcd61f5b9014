(* Small descriptive statistics over measurement samples.

   [summarize] first drops non-finite samples (a NaN trial would otherwise
   poison mean, stddev AND the min/max folds — the fold identities
   [infinity]/[neg_infinity] then leak into the summary); an
   effectively-empty input yields the all-zero summary rather than
   infinite extremes.  Stddev is the SAMPLE standard deviation
   (Bessel-corrected, divide by n-1): these are trials drawn from a noisy
   process, not a full population; n < 2 yields 0. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let empty = { count = 0; mean = 0.; stddev = 0.; min = 0.; max = 0. }

let summarize samples =
  match List.filter Float.is_finite samples with
  | [] -> empty
  | samples ->
    let count = List.length samples in
    let fcount = float_of_int count in
    let sum = List.fold_left ( +. ) 0. samples in
    let mean = sum /. fcount in
    let sq_diff =
      List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. samples
    in
    let stddev =
      if count < 2 then 0. else sqrt (sq_diff /. (fcount -. 1.))
    in
    let min = List.fold_left Float.min Float.infinity samples in
    let max = List.fold_left Float.max Float.neg_infinity samples in
    { count; mean; stddev; min; max }

let summarize_ints samples = summarize (List.map float_of_int samples)
